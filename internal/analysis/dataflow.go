package analysis

import "go/ast"

// A forward gen/kill dataflow solver over a CFG: facts are bit indices
// assigned by the client, Transfer mutates the fact set node by node,
// and Solve iterates blocks to fixpoint. Merge is union: a fact holds
// at a node when it holds on some path there (lockorder's held set).

// BitSet is a small fixed-capacity bit vector.
type BitSet struct {
	words []uint64
	n     int
}

func newBitSet(n int) *BitSet { return &BitSet{words: make([]uint64, (n+63)/64), n: n} }

func (s *BitSet) Has(i int) bool { return s.words[i/64]&(1<<uint(i%64)) != 0 }
func (s *BitSet) Set(i int)      { s.words[i/64] |= 1 << uint(i%64) }
func (s *BitSet) Clear(i int)    { s.words[i/64] &^= 1 << uint(i%64) }

func (s *BitSet) Clone() *BitSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &BitSet{words: w, n: s.n}
}

func (s *BitSet) UnionWith(o *BitSet) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

func (s *BitSet) Equal(o *BitSet) bool {
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Bits returns the set indices in ascending order.
func (s *BitSet) Bits() []int {
	var out []int
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Flow is one forward dataflow problem over a CFG.
type Flow struct {
	CFG      *CFG
	NumFacts int
	// Transfer applies one leaf node's effect to the fact set.
	Transfer func(n ast.Node, facts *BitSet)
}

// Solve iterates to fixpoint and returns the facts at each block's
// entry.
func (f *Flow) Solve() map[*Block]*BitSet {
	in := map[*Block]*BitSet{}
	out := map[*Block]*BitSet{}
	for _, b := range f.CFG.Blocks {
		in[b], out[b] = newBitSet(f.NumFacts), newBitSet(f.NumFacts)
	}

	work := make([]*Block, len(f.CFG.Blocks))
	copy(work, f.CFG.Blocks)
	queued := make([]bool, len(f.CFG.Blocks))
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		if b != f.CFG.Entry && len(b.Preds) > 0 {
			merged := newBitSet(f.NumFacts)
			for _, p := range b.Preds {
				merged.UnionWith(out[p])
			}
			in[b] = merged
		}
		o := in[b].Clone()
		for _, n := range b.Nodes {
			f.Transfer(n, o)
		}
		if !o.Equal(out[b]) {
			out[b] = o
			for _, s := range b.Succs {
				if !queued[s.Index] {
					queued[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// At replays the facts from the containing block's entry up to (but not
// including) node n: the facts that hold just before n executes. The
// second result is false when n is not a leaf of this CFG.
func (f *Flow) At(n ast.Node, blockIn map[*Block]*BitSet) (*BitSet, bool) {
	ref, ok := f.CFG.refOf(n)
	if !ok {
		return nil, false
	}
	facts := blockIn[ref.block].Clone()
	for _, m := range ref.block.Nodes[:ref.i] {
		f.Transfer(m, facts)
	}
	return facts, true
}
