// Resource-constrained test scheduling: rectangle packing of
// test x TAM-width after Sehgal/Liu/Ozev/Chakrabarty. Each TAM width
// omega = 1..W is optimized as one mcengine lane (greedy list
// scheduling + hill-climbing local search over test order and per-test
// widths, driven by the lane's deterministic RNG substream), and the
// schedule published for a requested width W is the best over lanes
// omega <= W. Because the lane results do not depend on W, the
// candidate set for W+1 is a superset of the one for W — so a wider
// TAM can never increase the optimal test time, by construction, and
// worker-count invariance, cancellation and merged-prefix
// checkpoint/resume all come from the engine.
package soc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mstx/internal/mcengine"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// fpSchedule is the failpoint evaluated at the head of every width
// lane's kernel; the chaos suite uses it to inject errors, panics and
// delays into the scheduler.
var fpSchedule = resilient.Site("soc.schedule")

// DefaultIterations is the local-search budget per width lane.
const DefaultIterations = 64

// Options configure a scheduling run.
type Options struct {
	// Iterations is the local-search budget per width lane
	// (default DefaultIterations). It is part of the reproducibility
	// contract: the same seed with a different budget is a different
	// optimization, and a checkpoint of one never resumes the other.
	Iterations int
	// Seed drives the per-lane RNG substreams.
	Seed int64
	// Workers bounds the lane worker pool (engine default when <= 0).
	Workers int
	// Checkpoint, when enabled, snapshots completed width lanes so a
	// killed run resumes to a bit-identical result.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names the snapshot (default "soc_lanes").
	CheckpointName string
}

// Assignment is one scheduled test: a rectangle of Width wires
// starting at wire Wire, occupying [Start, Start+Duration) cycles.
type Assignment struct {
	// Core and Test identify the wrapped-core test.
	Core string
	Test string
	// Start is the start time in TAM cycles.
	Start int64
	// Duration is the test time at the assigned width.
	Duration int64
	// Wire is the first TAM wire assigned.
	Wire int
	// Width is the number of contiguous wires assigned.
	Width int
	// Resources are the exclusive testers held while running.
	Resources []string
}

// End returns the first cycle after the assignment.
func (a Assignment) End() int64 { return a.Start + a.Duration }

// Schedule is a feasible test plan for one TAM width.
type Schedule struct {
	// TAMWidth is the requested bus width the schedule is valid for.
	TAMWidth int
	// PackWidth is the bus width the rectangles were packed under
	// (<= TAMWidth): the winning width lane. When it is narrower than
	// TAMWidth, the extra wires stay idle because every wider lane
	// produced a longer schedule — the idle is justified by the lane
	// comparison, and the packing is idle-free-or-justified at
	// PackWidth.
	PackWidth int
	// EffectiveWidth is the widest wire actually used plus one; the
	// scheduler may leave wires idle when narrower packing wins.
	EffectiveWidth int
	// Makespan is the total test time in cycles.
	Makespan int64
	// LowerBound is the certified lower bound at TAMWidth.
	LowerBound int64
	// SerialTime is the sum of all assignment durations — the test
	// time of the same program run back-to-back.
	SerialTime int64
	// Assignments are the placed tests, sorted by (Start, Wire).
	Assignments []Assignment
}

// Utilization is the fraction of the TAMWidth x Makespan area covered
// by test rectangles.
func (sch *Schedule) Utilization() float64 {
	if sch.Makespan <= 0 || sch.TAMWidth <= 0 {
		return 0
	}
	var area int64
	for _, a := range sch.Assignments {
		area += int64(a.Width) * a.Duration
	}
	return float64(area) / (float64(sch.TAMWidth) * float64(sch.Makespan))
}

// String renders the schedule compactly (one line per assignment, in
// (Start, Wire) order) — the canonical byte form the determinism
// properties compare.
func (sch *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "W=%d pack=%d eff=%d makespan=%d lb=%d serial=%d\n",
		sch.TAMWidth, sch.PackWidth, sch.EffectiveWidth, sch.Makespan, sch.LowerBound, sch.SerialTime)
	for _, a := range sch.Assignments {
		fmt.Fprintf(&b, "%s/%s start=%d dur=%d wires=%d+%d res=%s\n",
			a.Core, a.Test, a.Start, a.Duration, a.Wire, a.Width, strings.Join(a.Resources, ","))
	}
	return b.String()
}

// Validate checks the schedule against the SOC and the scheduler's
// feasibility contract: every test placed exactly once with its exact
// duration at the assigned width, widths within wrapper/test/TAM
// caps, wires within the bus, and no overlap on any TAM wire, within
// a core, or on an exclusive resource.
func (sch *Schedule) Validate(s *SOC) error {
	if sch.PackWidth < 1 || sch.PackWidth > sch.TAMWidth {
		return fmt.Errorf("schedule: pack width %d outside [1,%d]", sch.PackWidth, sch.TAMWidth)
	}
	type key struct{ core, test string }
	want := map[key]Test{}
	caps := map[key]int{}
	for _, c := range s.Cores {
		for _, t := range c.Tests {
			want[key{c.ID, t.Name}] = t
			w := t.MaxWidth
			if c.WrapperWidth < w {
				w = c.WrapperWidth
			}
			if sch.PackWidth < w {
				w = sch.PackWidth
			}
			caps[key{c.ID, t.Name}] = w
		}
	}
	seen := map[key]bool{}
	for _, a := range sch.Assignments {
		k := key{a.Core, a.Test}
		t, ok := want[k]
		if !ok {
			return fmt.Errorf("schedule: unknown test %s/%s", a.Core, a.Test)
		}
		if seen[k] {
			return fmt.Errorf("schedule: test %s/%s placed twice", a.Core, a.Test)
		}
		seen[k] = true
		if a.Width < 1 || a.Width > caps[k] {
			return fmt.Errorf("schedule: %s/%s width %d outside [1,%d]", a.Core, a.Test, a.Width, caps[k])
		}
		if a.Wire < 0 || a.Wire+a.Width > sch.PackWidth {
			return fmt.Errorf("schedule: %s/%s wires %d+%d outside pack width %d", a.Core, a.Test, a.Wire, a.Width, sch.PackWidth)
		}
		if d := t.Duration(a.Width); a.Duration != d {
			return fmt.Errorf("schedule: %s/%s duration %d, want %d at width %d", a.Core, a.Test, a.Duration, d, a.Width)
		}
		if a.Start < 0 {
			return fmt.Errorf("schedule: %s/%s negative start %d", a.Core, a.Test, a.Start)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("schedule: %d of %d tests placed", len(seen), len(want))
	}
	var makespan, serial int64
	eff := 0
	for i, a := range sch.Assignments {
		serial += a.Duration
		if a.End() > makespan {
			makespan = a.End()
		}
		if a.Wire+a.Width > eff {
			eff = a.Wire + a.Width
		}
		for _, b := range sch.Assignments[i+1:] {
			if a.Start >= b.End() || b.Start >= a.End() {
				continue
			}
			if a.Core == b.Core {
				return fmt.Errorf("schedule: core %q tests %q and %q overlap in time", a.Core, a.Test, b.Test)
			}
			if a.Wire < b.Wire+b.Width && b.Wire < a.Wire+a.Width {
				return fmt.Errorf("schedule: %s/%s and %s/%s overlap on TAM wires", a.Core, a.Test, b.Core, b.Test)
			}
			for _, ra := range a.Resources {
				for _, rb := range b.Resources {
					if ra == rb {
						return fmt.Errorf("schedule: %s/%s and %s/%s both hold %q", a.Core, a.Test, b.Core, b.Test, ra)
					}
				}
			}
		}
	}
	if sch.Makespan != makespan {
		return fmt.Errorf("schedule: makespan %d, assignments end at %d", sch.Makespan, makespan)
	}
	if sch.SerialTime != serial {
		return fmt.Errorf("schedule: serial time %d, assignments sum to %d", sch.SerialTime, serial)
	}
	if sch.EffectiveWidth != eff {
		return fmt.Errorf("schedule: effective width %d, assignments reach %d", sch.EffectiveWidth, eff)
	}
	if sch.Makespan > sch.SerialTime {
		return fmt.Errorf("schedule: makespan %d exceeds serial sum %d", sch.Makespan, sch.SerialTime)
	}
	if sch.LowerBound > sch.Makespan {
		return fmt.Errorf("schedule: lower bound %d exceeds makespan %d", sch.LowerBound, sch.Makespan)
	}
	return nil
}

// LowerBound certifies a makespan floor at TAM width W: the maximum
// of the area bound (every test covers at least Settle+Cycles wire-
// cycles and the bus supplies W per cycle), the per-core bound (a
// wrapper runs one test at a time, each no faster than its widest
// allowed configuration) and the per-resource bound (an exclusive
// tester serializes every test that holds it).
func LowerBound(s *SOC, W int) int64 {
	if W < 1 {
		W = 1
	}
	var area int64
	byRes := map[string]int64{}
	var best int64
	for _, c := range s.Cores {
		var coreSum int64
		for _, t := range c.Tests {
			area += t.Settle + t.Cycles
			w := t.MaxWidth
			if c.WrapperWidth < w {
				w = c.WrapperWidth
			}
			if W < w {
				w = W
			}
			d := t.Duration(w)
			coreSum += d
			for _, r := range t.Resources {
				byRes[r] += d
			}
		}
		if coreSum > best {
			best = coreSum
		}
	}
	if ab := (area + int64(W) - 1) / int64(W); ab > best {
		best = ab
	}
	for _, sum := range byRes {
		if sum > best {
			best = sum
		}
	}
	return best
}

// laneTest is one test flattened for the packer, with the width cap
// already clamped to wrapper and lane TAM width.
type laneTest struct {
	coreIdx        int
	core, name     string
	cycles, settle int64
	maxW           int
	res            []string
}

type placement struct {
	start, dur int64
	wire       int
	width      int
}

func (p *placement) end() int64 { return p.start + p.dur }

// instance is the flattened packing problem for one TAM width.
type instance struct {
	omega int
	tests []laneTest
	// conflict[a*n+b] reports whether tests a and b may never overlap
	// in time: same core (single-session wrapper) or a shared
	// exclusive resource.
	conflict []bool
}

func newInstance(s *SOC, omega int) *instance {
	inst := &instance{omega: omega}
	for ci, c := range s.Cores {
		for _, t := range c.Tests {
			w := t.MaxWidth
			if c.WrapperWidth < w {
				w = c.WrapperWidth
			}
			if omega < w {
				w = omega
			}
			if w < 1 {
				w = 1
			}
			inst.tests = append(inst.tests, laneTest{
				coreIdx: ci, core: c.ID, name: t.Name,
				cycles: t.Cycles, settle: t.Settle,
				maxW: w, res: t.Resources,
			})
		}
	}
	n := len(inst.tests)
	inst.conflict = make([]bool, n*n)
	for a := range inst.tests {
		ta := &inst.tests[a]
		for b := range inst.tests {
			tb := &inst.tests[b]
			inst.conflict[a*n+b] = ta.coreIdx == tb.coreIdx || sharesResource(ta, tb)
		}
	}
	return inst
}

func sharesResource(a, b *laneTest) bool {
	for _, ra := range a.res {
		for _, rb := range b.res {
			if ra == rb {
				return true
			}
		}
	}
	return false
}

func ceilDiv(c int64, w int) int64 { return (c + int64(w) - 1) / int64(w) }

// packer is one lane's local-search state: the accepted packing
// (placed, with prefix makespans mk) and the candidate packing being
// tried (cand, candMk). Between moves cand mirrors placed, so a move
// that changes nothing before position from repacks only
// order[from:].
type packer struct {
	inst          *instance
	order, widths []int
	// pos is the inverse of order: pos[order[k]] == k.
	pos []int
	// placed and cand are indexed by test; mk and candMk by position:
	// mk[k] is the makespan of the first k placed tests.
	placed, cand []placement
	mk, candMk   []int64
	occ          []bool
	ends         []int64
	// key and candKey hold appendKey's bytes for placed and cand; key
	// is stale when keyOK is false.
	key, candKey []byte
	keyOK        bool
}

func newPacker(inst *instance, order, widths []int) *packer {
	n := len(inst.tests)
	p := &packer{
		inst: inst, order: order, widths: widths,
		pos:    make([]int, n),
		placed: make([]placement, n), cand: make([]placement, n),
		mk: make([]int64, n+1), candMk: make([]int64, n+1),
		occ:  make([]bool, inst.omega),
		ends: make([]int64, 0, n+1),
	}
	for k, ti := range order {
		p.pos[ti] = k
	}
	return p
}

// swap exchanges the tests at positions i and j and returns the first
// position whose placement may change.
func (p *packer) swap(i, j int) int {
	p.order[i], p.order[j] = p.order[j], p.order[i]
	p.pos[p.order[i]], p.pos[p.order[j]] = i, j
	return min(i, j)
}

// pack greedily places the tests at positions from.. of the order into
// cand, keeping cand's placements before from: each test goes to its
// earliest feasible candidate start (time 0 or the end of an
// already-placed test), on the lowest run of contiguous free wires,
// honoring core- and resource-exclusivity. Placement is always
// possible at the latest end, so pack never fails; the result is
// fully determined by (order, widths), and equals a full repack
// whenever cand[order[:from]] is the packing of that prefix.
func (p *packer) pack(from int) int64 {
	inst, order, cand, occ := p.inst, p.order, p.cand, p.occ
	n := len(inst.tests)
	ends := append(p.ends[:0], 0)
	for _, tj := range order[:from] {
		ends = append(ends, cand[tj].end())
	}
	slices.Sort(ends)
	makespan := p.candMk[from]
	for k := from; k < n; k++ {
		ti := order[k]
		t := &inst.tests[ti]
		w := p.widths[ti]
		if w < 1 {
			w = 1
		}
		if w > t.maxW {
			w = t.maxW
		}
		d := t.settle + ceilDiv(t.cycles, w)
		conflict := inst.conflict[ti*n : ti*n+n]

		wire := -1
		var st, prev int64 = 0, -1
	cands:
		for _, st = range ends {
			if st == prev {
				continue
			}
			prev = st
			clear(occ)
			for _, tj := range order[:k] {
				q := &cand[tj]
				if st >= q.start+q.dur || q.start >= st+d {
					continue
				}
				if conflict[tj] {
					continue cands
				}
				for x := q.wire; x < q.wire+q.width; x++ {
					occ[x] = true
				}
			}
			run := 0
			for x := 0; x < inst.omega; x++ {
				if occ[x] {
					run = 0
					continue
				}
				if run++; run == w {
					wire = x - w + 1
					break cands
				}
			}
		}
		if wire < 0 {
			// Unreachable (the latest end always fits), kept as a
			// guard so a future constraint cannot silently drop tests.
			st, wire = makespan, 0
		}
		cand[ti] = placement{start: st, dur: d, wire: wire, width: w}
		end := st + d
		at, _ := slices.BinarySearch(ends, end)
		ends = slices.Insert(ends, at, end)
		makespan = max(makespan, end)
		p.candMk[k+1] = makespan
	}
	p.ends = ends
	return makespan
}

// candLess reports whether cand's key sorts before placed's, in
// the byte order of the "%d:%d:%d;" strings (decimal-string order, so
// "10" < "9": the order the published schedules were tie-broken in).
func (p *packer) candLess() bool {
	if !p.keyOK {
		p.key, p.keyOK = appendKey(p.key[:0], p.placed), true
	}
	p.candKey = appendKey(p.candKey[:0], p.cand)
	return bytes.Compare(p.candKey, p.key) < 0
}

// accept makes the candidate packing the accepted one.
func (p *packer) accept(from int, keyBuilt bool) {
	copy(p.placed, p.cand)
	copy(p.mk[from+1:], p.candMk[from+1:])
	if keyBuilt {
		p.key, p.candKey = p.candKey, p.key
	}
	p.keyOK = keyBuilt
}

// reject restores the candidate packing to the accepted one; the
// caller has already undone the move.
func (p *packer) reject(from int) {
	copy(p.cand, p.placed)
	copy(p.candMk[from+1:], p.mk[from+1:])
}

// appendKey appends the canonical byte form of a packing, used to
// break equal-makespan ties deterministically during local search:
// "start:wire:width;" per test, in test order.
func appendKey(dst []byte, placed []placement) []byte {
	for i := range placed {
		dst = strconv.AppendInt(dst, placed[i].start, 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(placed[i].wire), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(placed[i].width), 10)
		dst = append(dst, ';')
	}
	return dst
}

// optimize runs one width lane: greedy seed (longest test first at
// the widest allowed width) then hill-climbing local search over test
// order swaps and per-test width changes, accepting a move when it
// shortens the makespan or keeps it while reducing the canonical key.
func optimize(s *SOC, omega, iters int, rng *rand.Rand) *Schedule {
	inst := newInstance(s, omega)
	n := len(inst.tests)
	order := make([]int, n)
	widths := make([]int, n)
	for i := range order {
		order[i] = i
		widths[i] = inst.tests[i].maxW
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := &inst.tests[order[a]], &inst.tests[order[b]]
		da := ta.settle + ceilDiv(ta.cycles, widths[order[a]])
		db := tb.settle + ceilDiv(tb.cycles, widths[order[b]])
		if da != db {
			return da > db
		}
		if ta.core != tb.core {
			return ta.core < tb.core
		}
		return ta.name < tb.name
	})

	p := newPacker(inst, order, widths)
	best := p.pack(0)
	p.accept(0, false)

	for it := 0; it < iters; it++ {
		var from, i, j, oldW int
		swapped := n > 1 && rng.Intn(2) == 0
		if swapped {
			i, j = rng.Intn(n), rng.Intn(n)
			from = p.swap(i, j)
		} else {
			i = rng.Intn(n)
			oldW = widths[i]
			widths[i] = 1 + rng.Intn(inst.tests[i].maxW)
			from = p.pos[i]
		}
		mk := p.pack(from)
		if mk < best {
			best = mk
			p.accept(from, false)
		} else if mk == best && p.candLess() {
			p.accept(from, true)
		} else {
			if swapped {
				p.swap(i, j)
			} else {
				widths[i] = oldW
			}
			p.reject(from)
		}
	}
	placed := p.placed

	sch := &Schedule{TAMWidth: omega, PackWidth: omega, Makespan: best, LowerBound: LowerBound(s, omega)}
	for i := range placed {
		t := &inst.tests[i]
		a := Assignment{
			Core: t.core, Test: t.name,
			Start: placed[i].start, Duration: placed[i].dur,
			Wire: placed[i].wire, Width: placed[i].width,
			Resources: append([]string(nil), t.res...),
		}
		sch.SerialTime += a.Duration
		if a.Wire+a.Width > sch.EffectiveWidth {
			sch.EffectiveWidth = a.Wire + a.Width
		}
		sch.Assignments = append(sch.Assignments, a)
	}
	sort.Slice(sch.Assignments, func(a, b int) bool {
		x, y := sch.Assignments[a], sch.Assignments[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Wire != y.Wire {
			return x.Wire < y.Wire
		}
		if x.Core != y.Core {
			return x.Core < y.Core
		}
		return x.Test < y.Test
	})
	return sch
}

// laneSched is one width lane's result; exported fields for the gob
// checkpoint snapshot.
type laneSched struct {
	Width int
	Sched *Schedule
}

// sweepTotal is the merged lane prefix (the engine checkpoint state).
type sweepTotal struct {
	Lanes []laneSched
}

// checkResumed refuses a lane prefix restored from a snapshot that
// does not hold a valid schedule for every width lane 1..maxW, in
// order: one that matched the run identity but was packed for some
// other SOC, or was corrupted between its CRC and here.
func checkResumed(s *SOC, name string, lanes []laneSched, maxW int) error {
	if len(lanes) != maxW {
		return &resilient.CheckpointError{Name: name, Err: fmt.Errorf("holds %d width lanes, want %d", len(lanes), maxW)}
	}
	for i, ln := range lanes {
		if ln.Width != i+1 || ln.Sched == nil || ln.Sched.PackWidth != ln.Width {
			return &resilient.CheckpointError{Name: name, Err: fmt.Errorf("lane %d holds no schedule for width %d", i, i+1)}
		}
		if err := ln.Sched.Validate(s); err != nil {
			return &resilient.CheckpointError{Name: name, Err: fmt.Errorf("lane %d: %w", i, err)}
		}
	}
	return nil
}

// Plan schedules the SOC at one TAM width. See PlanSweep.
func Plan(ctx context.Context, s *SOC, width int, opts Options) (*Schedule, error) {
	scheds, err := PlanSweep(ctx, s, []int{width}, opts)
	if err != nil {
		return nil, err
	}
	return scheds[0], nil
}

// PlanSweep schedules the SOC at every requested TAM width and
// returns one schedule per width, in order. All widths share one
// engine run over lanes omega = 1..max(widths); the schedule for a
// requested width W is the best lane with omega <= W, restamped with
// W's lower bound. Results are bit-identical for any worker count and
// across checkpoint/resume, and monotone: a wider TAM never yields a
// longer makespan.
func PlanSweep(ctx context.Context, s *SOC, widths []int, opts Options) ([]*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("soc: no TAM widths requested")
	}
	maxW := 0
	for _, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("soc: TAM width %d must be >= 1", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = DefaultIterations
	}

	reg := obs.For(ctx)
	if reg != nil {
		planCtx, sp := reg.Span(ctx, "soc.plan")
		defer sp.End()
		ctx = planCtx
		defer func() {
			reg.Counter("soc_plans_total").Inc()
			reg.Counter("soc_lanes_total").Add(int64(maxW))
			reg.Counter("soc_tests_total").Add(int64(s.NumTests()))
		}()
	}

	ckName := opts.CheckpointName
	if ckName == "" {
		ckName = "soc_lanes"
	}
	kernel := func(_, lane, count int, rng *rand.Rand) (laneSched, error) {
		if err := resilient.Fire(fpSchedule); err != nil {
			return laneSched{}, err
		}
		omega := lane + 1
		return laneSched{Width: omega, Sched: optimize(s, omega, iters, rng)}, nil
	}
	merge := func(total sweepTotal, lane int, p laneSched) sweepTotal {
		total.Lanes = append(total.Lanes, p)
		return total
	}
	// No OnQuarantine on purpose: dropping a width lane would silently
	// change the published schedule, so a panicking lane must surface
	// as a run error instead.
	total, _, err := mcengine.Run(ctx, maxW, opts.Seed, mcengine.Options{
		Workers:        opts.Workers,
		BatchSize:      1,
		Checkpoint:     opts.Checkpoint,
		CheckpointName: ckName,
		Ident:          fmt.Sprintf("iterations=%d", iters),
	}, sweepTotal{}, kernel, merge, nil)
	if err != nil {
		return nil, err
	}
	if opts.Checkpoint.Enabled() {
		if err := checkResumed(s, ckName, total.Lanes, maxW); err != nil {
			return nil, err
		}
	}

	out := make([]*Schedule, len(widths))
	for i, w := range widths {
		var pick *Schedule
		for _, ln := range total.Lanes {
			if ln.Width > w {
				continue
			}
			if pick == nil || ln.Sched.Makespan < pick.Makespan {
				pick = ln.Sched
			}
		}
		if pick == nil {
			return nil, fmt.Errorf("soc: no lane result for width %d", w)
		}
		sch := *pick
		sch.Assignments = append([]Assignment(nil), pick.Assignments...)
		sch.TAMWidth = w
		sch.LowerBound = LowerBound(s, w)
		out[i] = &sch
	}
	return out, nil
}
