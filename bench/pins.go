package main

// pin identifies a run whose outputs are pinned: the workload at a seed
// and a --seconds (the work a run does scales with --seconds).
type pin struct {
	workload string
	seed     uint64
	seconds  float64
}

// pinnedDigests are the SHA-256 output digests of each workload at the
// default seed and seconds. A run with those settings whose digest differs
// fails. Regenerate by running each workload with the defaults and copying
// the printed digest — only when a change is meant to alter results.
var pinnedDigests = map[pin]string{
	{"figure-wifi", defaultSeed, defaultSeconds}:     "c0e246cc64640277d3ec61902053869d07d290a6fa973af962b03ed8d84b6755",
	{"figure-abstract", defaultSeed, defaultSeconds}: "1219c9055cd5ef85e4ac5e6887cd9e3879574970c590027b89e0ecb112576df8",
	{"serve-warm", defaultSeed, defaultSeconds}:      "68141aac492649ae7adc01da91608c9e1f34983004a6f76113557a9d59b35cc5",
	{"serve-mixed", defaultSeed, defaultSeconds}:     "ea1944850d1e564791b09ab5f051f7febebce7eb42293b9310c5ce09b45663aa",
}
