// Package alias implements Walker's alias method: O(n) preprocessing of
// an arbitrary discrete distribution into a table that samples in O(1).
//
// It is the substrate for the data-driven ("frequency distribution")
// extension the paper names as future work in Section 8: instead of a
// predefined Zipfian/Gaussian, degree and popularity distributions can
// be taken verbatim from a data dictionary — an empirical histogram —
// and sampled at generator speed.
package alias

import (
	"fmt"

	"repro/internal/rng"
)

// Table is a compiled discrete distribution over [0, n).
type Table struct {
	prob  []float64 // acceptance threshold per column
	alias []int32   // fallback outcome per column
}

// New compiles the (unnormalized, non-negative) weights. At least one
// weight must be positive.
func New(weights []float64) (*Table, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("alias: empty weight vector")
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("alias: %d outcomes exceed table range", n)
	}
	var total float64
	for i, w := range weights {
		if w < 0 || w != w {
			return nil, fmt.Errorf("alias: weight[%d] = %v invalid", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("alias: all weights zero")
	}
	t := &Table{prob: make([]float64, n), alias: make([]int32, n)}
	// Scaled probabilities; columns with mass < 1 are "small".
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small { // numerical leftovers
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t, nil
}

// Len returns the number of outcomes.
func (t *Table) Len() int { return len(t.prob) }

// Column returns column i's acceptance threshold and alias outcome:
// Sample keeps i with probability prob and otherwise returns alias.
// Callers that pack tables of their own (the AVS chunk sampler) read
// the compiled columns through it.
func (t *Table) Column(i int) (prob float64, alias int) {
	return t.prob[i], int(t.alias[i])
}

// Sample draws one outcome in O(1): a uniform column, then a biased
// coin between the column and its alias.
func (t *Table) Sample(src *rng.Source) int {
	i := int(src.Int63n(int64(len(t.prob))))
	if src.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
