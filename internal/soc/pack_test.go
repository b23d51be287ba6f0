// The incremental packer against the full-repack reference it
// replaced: after every local-search move, packing only order[from:]
// over the kept prefix must give the placements and makespans a full
// repack of the whole order gives, and the allocation-free tie-break
// key must order packings exactly as the reference's fmt strings do.
package soc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// refPlacement is the reference packer's placement; done marks the
// tests placed so far.
type refPlacement struct {
	start, dur int64
	wire       int
	width      int
	done       bool
}

// refPack is the full-repack greedy packer: every call clears the
// packing and places all tests in order, rebuilding and sorting the
// candidate starts for each test and scanning every test for
// conflicts.
func refPack(inst *instance, order []int, widths []int, placed []refPlacement, occ []bool, ends []int64) int64 {
	for i := range placed {
		placed[i] = refPlacement{}
	}
	var makespan int64
	for _, ti := range order {
		t := &inst.tests[ti]
		w := widths[ti]
		if w < 1 {
			w = 1
		}
		if w > t.maxW {
			w = t.maxW
		}
		d := t.settle + ceilDiv(t.cycles, w)

		ends = ends[:0]
		ends = append(ends, 0)
		for tj := range placed {
			if placed[tj].done {
				ends = append(ends, placed[tj].start+placed[tj].dur)
			}
		}
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })

		var prev int64 = -1
	cands:
		for _, st := range ends {
			if st == prev {
				continue
			}
			prev = st
			for k := 0; k < inst.omega; k++ {
				occ[k] = false
			}
			for tj := range placed {
				p := &placed[tj]
				if !p.done || st >= p.start+p.dur || p.start >= st+d {
					continue
				}
				other := &inst.tests[tj]
				if other.coreIdx == t.coreIdx || sharesResource(other, t) {
					continue cands
				}
				for k := p.wire; k < p.wire+p.width; k++ {
					occ[k] = true
				}
			}
			run, wire := 0, -1
			for k := 0; k < inst.omega; k++ {
				if occ[k] {
					run = 0
					continue
				}
				if run++; run == w {
					wire = k - w + 1
					break
				}
			}
			if wire < 0 {
				continue
			}
			placed[ti] = refPlacement{start: st, dur: d, wire: wire, width: w, done: true}
			break
		}
		if !placed[ti].done {
			placed[ti] = refPlacement{start: makespan, dur: d, wire: 0, width: w, done: true}
		}
		if end := placed[ti].start + placed[ti].dur; end > makespan {
			makespan = end
		}
	}
	return makespan
}

// refPackKey is the reference tie-break key.
func refPackKey(placed []placement) string {
	var b strings.Builder
	for i := range placed {
		fmt.Fprintf(&b, "%d:%d:%d;", placed[i].start, placed[i].wire, placed[i].width)
	}
	return b.String()
}

// refPacking runs the reference over the packer's current order and
// widths and returns its placements as packer placements.
func refPacking(p *packer) ([]placement, int64) {
	n := len(p.inst.tests)
	ref := make([]refPlacement, n)
	mk := refPack(p.inst, p.order, p.widths, ref, make([]bool, p.inst.omega), make([]int64, 0, n+1))
	out := make([]placement, n)
	for i, r := range ref {
		out[i] = placement{start: r.start, dur: r.dur, wire: r.wire, width: r.width}
	}
	return out, mk
}

// checkPrefix verifies the prefix makespans mk against the packing:
// mk[k] is the latest end among the first k tests of the order.
func checkPrefix(p *packer, placed []placement, mk []int64) error {
	var m int64
	for k, ti := range p.order {
		if mk[k] != m {
			return fmt.Errorf("prefix makespan %d = %d, want %d", k, mk[k], m)
		}
		m = max(m, placed[ti].end())
	}
	if got := mk[len(p.order)]; got != m {
		return fmt.Errorf("full makespan %d, want %d", got, m)
	}
	return nil
}

// TestPropertyIncrementalPackMatchesReference drives the incremental
// packer through random move sequences on random SOCs, accepting or
// rejecting each move at random, and compares it with the full repack
// after every move.
func TestPropertyIncrementalPackMatchesReference(t *testing.T) {
	prop := func(c socCase) bool {
		rng := rand.New(rand.NewSource(c.Seed))
		inst := newInstance(c.S, c.W)
		n := len(inst.tests)
		order, widths := rng.Perm(n), make([]int, n)
		for i := range widths {
			widths[i] = 1 + rng.Intn(inst.tests[i].maxW)
		}
		p := newPacker(inst, order, widths)
		mk := p.pack(0)
		p.accept(0, false)
		for move := 0; move < 40; move++ {
			want, wantMk := refPacking(p)
			if mk != wantMk || !reflect.DeepEqual(p.placed, want) {
				t.Logf("move %d: accepted packing %v (makespan %d), reference %v (%d)", move, p.placed, mk, want, wantMk)
				return false
			}
			if err := checkPrefix(p, p.placed, p.mk); err != nil {
				t.Logf("move %d: accepted: %v", move, err)
				return false
			}
			if !reflect.DeepEqual(p.cand, p.placed) {
				t.Logf("move %d: cand does not mirror placed", move)
				return false
			}

			var from, i, j, oldW int
			swapped := rng.Intn(2) == 0
			if swapped {
				i, j = rng.Intn(n), rng.Intn(n)
				from = p.swap(i, j)
			} else {
				i = rng.Intn(n)
				oldW = widths[i]
				widths[i] = 1 + rng.Intn(inst.tests[i].maxW)
				from = p.pos[i]
			}
			candMk := p.pack(from)
			want, wantMk = refPacking(p)
			if candMk != wantMk || !reflect.DeepEqual(p.cand, want) {
				t.Logf("move %d from %d: incremental %v (makespan %d), reference %v (%d)", move, from, p.cand, candMk, want, wantMk)
				return false
			}
			if err := checkPrefix(p, p.cand, p.candMk); err != nil {
				t.Logf("move %d: candidate: %v", move, err)
				return false
			}

			built := rng.Intn(2) == 0
			if built {
				less := p.candLess()
				refLess := refPackKey(p.cand) < refPackKey(p.placed)
				if less != refLess || string(p.candKey) != refPackKey(p.cand) || string(p.key) != refPackKey(p.placed) {
					t.Logf("move %d: key compare %v, reference %v (%q vs %q)", move, less, refLess, p.candKey, p.key)
					return false
				}
			}
			if rng.Intn(2) == 0 {
				p.accept(from, built)
				mk = candMk
			} else {
				if swapped {
					p.swap(i, j)
				} else {
					widths[i] = oldW
				}
				p.reject(from)
			}
			if p.keyOK && string(p.key) != refPackKey(p.placed) {
				t.Logf("move %d: kept key %q, reference %q", move, p.key, refPackKey(p.placed))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(89, 60)); err != nil {
		t.Error(err)
	}
}

// TestPackKeyDecimalOrder pins the tie-break order to the byte order
// of the "%d:%d:%d;" strings: a start of 10 sorts before a start of 9,
// although 9 < 10 numerically.
func TestPackKeyDecimalOrder(t *testing.T) {
	ten := []placement{{start: 10, dur: 5, wire: 0, width: 1}, {start: 0, dur: 10, wire: 0, width: 1}}
	nine := []placement{{start: 9, dur: 5, wire: 0, width: 1}, {start: 0, dur: 9, wire: 0, width: 1}}
	if got, want := string(appendKey(nil, ten)), refPackKey(ten); got != want {
		t.Fatalf("key %q, reference %q", got, want)
	}
	if got, want := bytes.Compare(appendKey(nil, ten), appendKey(nil, nine)), strings.Compare(refPackKey(ten), refPackKey(nine)); got != want || got != -1 {
		t.Fatalf("compare(10, 9) = %d, reference %d, want -1", got, want)
	}

	// The packer's own compare: with placed holding the 9 key, a
	// candidate holding the 10 key is the smaller one, and not the
	// other way round.
	p := &packer{placed: nine, cand: ten}
	if !p.candLess() {
		t.Error("candidate 10 does not sort before placed 9")
	}
	p = &packer{placed: ten, cand: nine}
	if p.candLess() {
		t.Error("candidate 9 sorts before placed 10")
	}
}
