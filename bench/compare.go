package main

// compare judges a change against its parent from the per-run result
// files the two sides wrote with --record, following the rule for small
// sandboxes: each side's median and quartiles, the share of paired runs
// the change wins, and a verdict per (workload, end-to-end metric).

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compare(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-benchmark BENCHMARK.json] PARENT.ndjson CHANGE.ndjson")
	}
	data, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *spec, err)
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}

	var names []string
	for w := range parent {
		if change[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressed := 0
	fmt.Fprintf(stdout, "%-16s %-16s %-30s %-30s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			a, b := series(parent[w], m.Name), series(change[w], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, m.Better == "higher", m.Bound)
			if v.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %-30s %-30s %-6s %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.aMed, v.aQ1, v.aQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.bMed, v.bQ1, v.bQ3),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed past their bound", regressed)
	}
	return nil
}

// readRecords loads a --record file's untraced runs, grouped by workload
// in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

func series(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict is compare's finding for one (workload, metric).
type verdict struct {
	aMed, aQ1, aQ3, bMed, bQ1, bQ3 float64
	wins, pairs                    int
	verdict                        string
}

// judge compares the change's runs b with the parent's runs a. Runs pair
// up in order; a pair the change wins reads strictly better, ties count
// for neither side.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	v := verdict{pairs: min(len(a), len(b))}
	v.aQ1, v.aQ3 = quartiles(a)
	v.bQ1, v.bQ3 = quartiles(b)
	v.aMed, v.bMed = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	worse := v.bMed - v.aMed
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse > bound*v.aMed:
		v.verdict = "regressed"
	case v.wins*10 >= v.pairs*9 && -worse > v.aQ3-v.aQ1:
		v.verdict = "improved"
	case v.aQ3-v.aQ1 > bound*v.aMed && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "within bound"
	}
	return v
}
