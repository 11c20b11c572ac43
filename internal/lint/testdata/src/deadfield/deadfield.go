// Fixture: deadfield — struct fields with and without a non-test reader.
package deadfield

import "encoding/json"

// Wire is encoded through its tags, so no field needs a selector reader.
type Wire struct {
	ID    int    `json:"id"`
	Note  string `json:"note,omitempty"`
	Inner Inner
}

// Inner has no tag, but the encoded Wire holds it.
type Inner struct{ Depth int }

// Report has no tag, but it is passed to json.Marshal.
type Report struct{ Total int }

// Peak's max is only raised from itself: a self-update is not a read.
type Peak struct{ max, last int }

// Counter's hits is only incremented.
type Counter struct{ hits, seen int }

// Literal's label is only set in a composite literal.
type Literal struct {
	label string
	size  int
}

// Base's Name is read through Derived, which reads the embedded Base.
type Base struct{ Name string }

// Derived embeds Base.
type Derived struct {
	Base
	extra int
}

// Encode marshals a Wire and a Report.
func Encode(w Wire, r Report) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, w.Note...), nil
}

// Observe feeds v into a Peak and a Counter and reads what is live.
func Observe(p *Peak, c *Counter, v int) int {
	p.max = max(p.max, v)
	p.last = v
	c.hits++
	c.seen += v
	return p.last + c.seen
}

// Size builds a Literal and reads its size.
func Size() int {
	l := Literal{label: "x", size: 2}
	return l.size
}

// Name reads a promoted field.
func Name(d Derived) string { return d.Name + string(rune(d.extra)) }
