package expr

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Aggregator accumulates values for one aggregate function within one
// group of an aggregating projection. Following Cypher semantics, null
// inputs are skipped by all aggregators except count(*).
type Aggregator interface {
	// Add feeds one input value (already the evaluated argument).
	Add(v value.Value) error
	// Result finalizes the aggregate.
	Result() value.Value
	// Retains estimates the additional bytes this aggregator would hold
	// on to if v were Added now. Fixed-state aggregators (count, sum,
	// avg, stDev, min/max, which keep at most one value) report 0;
	// collect and DISTINCT report the growth of their buffers. The
	// executor's memory accounting calls this before Add only when a
	// memory budget is configured.
	Retains(v value.Value) int64
}

// NewAggregator returns an aggregator for the named function.
// Supported: count, sum, avg, min, max, collect, stDev, stDevP.
// star selects count(*), which counts rows including nulls.
func NewAggregator(name string, distinct, star bool) (Aggregator, error) {
	var inner Aggregator
	switch name {
	case "count":
		inner = &countAgg{star: star}
	case "sum":
		inner = &sumAgg{}
	case "avg":
		inner = &avgAgg{}
	case "min":
		inner = &minMaxAgg{min: true}
	case "max":
		inner = &minMaxAgg{}
	case "collect":
		inner = &collectAgg{}
	case "stdev":
		inner = &stdevAgg{sample: true}
	case "stdevp":
		inner = &stdevAgg{}
	default:
		return nil, fmt.Errorf("unknown aggregation function %s()", name)
	}
	if distinct {
		return &distinctAgg{seen: make(map[string]bool), inner: inner}, nil
	}
	return inner, nil
}

// distinctAgg feeds its inner aggregator each distinct value once. The
// value's key is appended to a buffer reused across rows and looked up
// as seen[string(buf)], which does not allocate; only a new value's
// key is copied into the set.
type distinctAgg struct {
	seen  map[string]bool
	inner Aggregator
	buf   []byte
}

func (d *distinctAgg) Add(v value.Value) error {
	d.buf = value.AppendKey(d.buf[:0], v)
	if d.seen[string(d.buf)] {
		return nil
	}
	d.seen[string(d.buf)] = true
	return d.inner.Add(v)
}

func (d *distinctAgg) Result() value.Value { return d.inner.Result() }

func (d *distinctAgg) Retains(v value.Value) int64 {
	d.buf = value.AppendKey(d.buf[:0], v)
	if d.seen[string(d.buf)] {
		return 0
	}
	return 48 + int64(len(d.buf)) + d.inner.Retains(v)
}

type countAgg struct {
	star bool
	n    int64
}

func (c *countAgg) Add(v value.Value) error {
	if c.star || !value.IsNull(v) {
		c.n++
	}
	return nil
}

func (c *countAgg) Result() value.Value { return value.Int(c.n) }

func (c *countAgg) Retains(value.Value) int64 { return 0 }

type sumAgg struct {
	intSum   int64
	floatSum float64
	sawFloat bool
	sawAny   bool
}

func (s *sumAgg) Add(v value.Value) error {
	switch x := v.(type) {
	case value.Null:
		return nil
	case value.Int:
		s.intSum += int64(x)
		s.sawAny = true
	case value.Float:
		s.floatSum += float64(x)
		s.sawFloat = true
		s.sawAny = true
	default:
		return fmt.Errorf("sum() expects numbers, got %s", v.Kind())
	}
	return nil
}

func (s *sumAgg) Result() value.Value {
	if s.sawFloat {
		return value.Float(s.floatSum + float64(s.intSum))
	}
	return value.Int(s.intSum)
}

func (s *sumAgg) Retains(value.Value) int64 { return 0 }

type avgAgg struct {
	sum sumAgg
	n   int64
}

func (a *avgAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	if err := a.sum.Add(v); err != nil {
		return fmt.Errorf("avg() expects numbers, got %s", v.Kind())
	}
	a.n++
	return nil
}

func (a *avgAgg) Result() value.Value {
	if a.n == 0 {
		return value.NullValue
	}
	total, _ := value.AsFloat(a.sum.Result())
	return value.Float(total / float64(a.n))
}

func (a *avgAgg) Retains(value.Value) int64 { return 0 }

type minMaxAgg struct {
	min  bool
	best value.Value
}

func (m *minMaxAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	if m.best == nil {
		m.best = v
		return nil
	}
	c := value.CompareOrder(v, m.best)
	if (m.min && c < 0) || (!m.min && c > 0) {
		m.best = v
	}
	return nil
}

func (m *minMaxAgg) Result() value.Value {
	if m.best == nil {
		return value.NullValue
	}
	return m.best
}

// Retains reports 0: min/max hold at most one value at a time.
func (m *minMaxAgg) Retains(value.Value) int64 { return 0 }

type collectAgg struct {
	vals value.List
}

func (c *collectAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	c.vals = append(c.vals, v)
	return nil
}

func (c *collectAgg) Result() value.Value {
	if c.vals == nil {
		return value.List{}
	}
	return c.vals
}

func (c *collectAgg) Retains(v value.Value) int64 {
	if value.IsNull(v) {
		return 0
	}
	return value.ApproxSize(v)
}

// stdevAgg implements Welford's online algorithm.
type stdevAgg struct {
	sample bool
	n      int64
	mean   float64
	m2     float64
}

func (s *stdevAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	x, ok := value.AsFloat(v)
	if !ok {
		return fmt.Errorf("stDev() expects numbers, got %s", v.Kind())
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	return nil
}

func (s *stdevAgg) Result() value.Value {
	if s.n == 0 {
		return value.Float(0)
	}
	div := float64(s.n)
	if s.sample {
		if s.n < 2 {
			return value.Float(0)
		}
		div = float64(s.n - 1)
	}
	return value.Float(math.Sqrt(s.m2 / div))
}

func (s *stdevAgg) Retains(value.Value) int64 { return 0 }
