package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 0, 1, 8)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().N != 0 {
		t.Error("nil handles must observe nothing")
	}
	ctx, sp := r.Span(context.Background(), "nope")
	sp.End()
	if ctx == nil {
		t.Error("nil registry must hand the context back")
	}
	if err := r.WriteText(io.Discard); err != nil {
		t.Error(err)
	}
	if err := r.WriteTrace(io.Discard); err != nil {
		t.Error(err)
	}
	if r.Spans() != nil {
		t.Error("nil registry has no spans")
	}
}

// TestNilReceiversAreNoOps: disabled observability is free only if a
// nil registry, and the nil handles it hands out, flow through every
// instrumented call site. Every exported method of each handle type is
// called on a nil receiver with zero-valued arguments and must return
// without panicking, however the call site got its handle; a method
// added later is covered with no edit here.
func TestNilReceiversAreNoOps(t *testing.T) {
	for _, recv := range []any{(*Registry)(nil), (*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*SpanHandle)(nil)} {
		v := reflect.ValueOf(recv)
		typ := v.Type()
		if typ.NumMethod() == 0 {
			t.Fatalf("%s has no exported methods", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := []reflect.Value{v}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%s).%s on a nil receiver panicked: %v", typ, m.Name, p)
					}
				}()
				if m.Type.IsVariadic() {
					m.Func.CallSlice(args)
				} else {
					m.Func.Call(args)
				}
			}()
		}
	}
}

func TestDefaultInstallAndClear(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry must start nil")
	}
	r := New()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r {
		t.Fatal("SetDefault did not install")
	}
	_, sp := Span(context.Background(), "root")
	sp.End()
	if got := len(r.Spans()); got != 1 {
		t.Fatalf("span not recorded via default: %d spans", got)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(41)
	c.Add(-7) // monotone contract: negative adds ignored
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	if r.Counter("hits_total") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(0.5)
	if g.Value() != 3 {
		t.Errorf("gauge = %g, want 3", g.Value())
	}
}

func TestHistogramGeometryFirstWins(t *testing.T) {
	r := New()
	h1 := r.Histogram("lat", 0, 1, 16)
	h2 := r.Histogram("lat", 0, 100, 4) // later geometry ignored
	if h1 != h2 {
		t.Error("same name must return the same histogram")
	}
	if r.Histogram("bad", 1, 1, 8) != nil || r.Histogram("bad2", 0, 1, 0) != nil {
		t.Error("invalid geometry must yield the inert nil handle")
	}
}

// refHist is the serial single-writer reference the striped histogram
// and the snapshot merge are checked against.
type refHist struct {
	lo, hi      float64
	counts      []int64
	under, over int64
	n           int64
	sum         float64
	min, max    float64
}

func newRefHist(lo, hi float64, bins int) *refHist {
	return &refHist{lo: lo, hi: hi, counts: make([]int64, bins),
		min: math.Inf(1), max: math.Inf(-1)}
}

func (r *refHist) observe(x float64) {
	r.n++
	r.sum += x
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
	switch {
	case x < r.lo:
		r.under++
	case x >= r.hi:
		r.over++
	default:
		i := int(float64(len(r.counts)) * (x - r.lo) / (r.hi - r.lo))
		if i >= len(r.counts) {
			i = len(r.counts) - 1
		}
		r.counts[i]++
	}
}

// agreesWithRef compares a snapshot against the serial reference —
// integer state exactly, Sum within float tolerance.
func agreesWithRef(s HistSnapshot, r *refHist) error {
	if s.N != r.n || s.Under != r.under || s.Over != r.over {
		return fmt.Errorf("totals differ: N %d/%d under %d/%d over %d/%d",
			s.N, r.n, s.Under, r.under, s.Over, r.over)
	}
	for i := range s.Counts {
		if s.Counts[i] != r.counts[i] {
			return fmt.Errorf("bin %d: %d vs %d", i, s.Counts[i], r.counts[i])
		}
	}
	if r.n > 0 && (s.Min != r.min || s.Max != r.max) {
		return fmt.Errorf("extremes differ: [%g,%g] vs [%g,%g]", s.Min, s.Max, r.min, r.max)
	}
	if math.Abs(s.Sum-r.sum) > 1e-9*(1+math.Abs(r.sum)) {
		return fmt.Errorf("sum %g vs %g", s.Sum, r.sum)
	}
	return nil
}

// TestHistogramMergeAssociativeCommutative is the satellite property
// test: on random streams, merging per-part snapshots in any order or
// grouping agrees with the serial reference over the whole stream.
func TestHistogramMergeAssociativeCommutative(t *testing.T) {
	f := func(seed int64, parts uint8) bool {
		k := 2 + int(parts%5)
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		ref := newRefHist(-2, 2, 32)
		hists := make([]*Histogram, k)
		for i := range hists {
			hists[i] = newHistogram(-2, 2, 32)
		}
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 1.5 // spills both overflow counters
			ref.observe(x)
			hists[rng.Intn(k)].Observe(x)
		}
		snaps := make([]HistSnapshot, k)
		for i, h := range hists {
			snaps[i] = h.Snapshot()
		}
		// Left fold in order: ((s0+s1)+s2)+...
		left := newHistogram(-2, 2, 32).Snapshot()
		for _, s := range snaps {
			if err := left.Merge(s); err != nil {
				t.Log(err)
				return false
			}
		}
		// Reversed order (commutativity)...
		rev := newHistogram(-2, 2, 32).Snapshot()
		for i := k - 1; i >= 0; i-- {
			if err := rev.Merge(snaps[i]); err != nil {
				t.Log(err)
				return false
			}
		}
		// ...and a right-leaning grouping (associativity): s0 + (s1 +
		// (s2 + ...)).
		right := newHistogram(-2, 2, 32).Snapshot()
		for i := k - 1; i >= 0; i-- {
			tail := right
			right = newHistogram(-2, 2, 32).Snapshot()
			if err := right.Merge(snaps[i]); err != nil {
				t.Log(err)
				return false
			}
			if err := right.Merge(tail); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, merged := range []HistSnapshot{left, rev, right} {
			if err := agreesWithRef(merged, ref); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramStripedConcurrentAgreesWithSerial pins that the
// lock-striped writer path loses nothing: G concurrent observers over
// a partitioned random stream snapshot to exactly the serial
// reference.
func TestHistogramStripedConcurrentAgreesWithSerial(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	h := newHistogram(-1, 1, 64)
	ref := newRefHist(-1, 1, 64)
	streams := make([][]float64, goroutines)
	rng := rand.New(rand.NewSource(7))
	for g := range streams {
		streams[g] = make([]float64, perG)
		for i := range streams[g] {
			x := rng.NormFloat64() * 0.6
			streams[g][i] = x
			ref.observe(x)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(xs []float64) {
			defer wg.Done()
			for _, x := range xs {
				h.Observe(x)
			}
		}(streams[g])
	}
	wg.Wait()
	if err := agreesWithRef(h.Snapshot(), ref); err != nil {
		t.Fatal(err)
	}
}

// TestCounterGaugeMonotoneUnderConcurrentWriters is the satellite
// property: with only positive increments in flight, every snapshot a
// concurrent reader takes is non-decreasing, and the final value is
// the exact sum.
func TestCounterGaugeMonotoneUnderConcurrentWriters(t *testing.T) {
	const writers = 8
	const perW = 20000
	r := New()
	c := r.Counter("events_total")
	g := r.Gauge("progress")
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		lastC := int64(-1)
		lastG := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < lastC {
				t.Errorf("counter snapshot went backwards: %d after %d", v, lastC)
				return
			} else {
				lastC = v
			}
			if v := g.Value(); v < lastG {
				t.Errorf("gauge snapshot went backwards: %g after %g", v, lastG)
				return
			} else {
				lastG = v
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Add(3)
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if want := int64(writers * perW * 3); c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if want := float64(writers*perW) * 0.5; math.Abs(g.Value()-want) > 1e-6 {
		t.Errorf("gauge = %g, want %g", g.Value(), want)
	}
}

func TestSpanNestingAndRing(t *testing.T) {
	r := NewWithRing(4)
	ctx := context.Background()
	ctx, root := r.Span(ctx, "root")
	cctx, child := r.Span(ctx, "child")
	_, grand := r.Span(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Depth != 0 || byName["root"].Parent != "" {
		t.Errorf("root span mis-nested: %+v", byName["root"])
	}
	if byName["child"].Depth != 1 || byName["child"].Parent != "root" {
		t.Errorf("child span mis-nested: %+v", byName["child"])
	}
	if byName["grandchild"].Depth != 2 || byName["grandchild"].Parent != "child" {
		t.Errorf("grandchild span mis-nested: %+v", byName["grandchild"])
	}
	// The ring is bounded: flood it and only the most recent survive.
	for i := 0; i < 10; i++ {
		_, sp := r.Span(context.Background(), fmt.Sprintf("s%d", i))
		sp.End()
	}
	spans = r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want capacity 4", len(spans))
	}
	if spans[len(spans)-1].Name != "s9" {
		t.Errorf("ring lost the newest span: %+v", spans)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := New()
	r.Counter("runs_total").Add(3)
	r.Gauge("util").Set(0.75)
	h := r.Histogram("lat_seconds", 0, 1, 2)
	for _, x := range []float64{-0.5, 0.25, 0.25, 0.75, 2.0} {
		h.Observe(x)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE util gauge\nutil 0.75\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0"} 1`,   // the under-range sample
		`lat_seconds_bucket{le="0.5"} 3`, // + the two 0.25s
		`lat_seconds_bucket{le="1"} 4`,   // + the 0.75
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
		"lat_seconds_min -0.5",
		"lat_seconds_max 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	var tb strings.Builder
	_, sp := r.Span(context.Background(), "phase")
	time.Sleep(time.Millisecond)
	sp.End()
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "phase") {
		t.Errorf("trace lacks the span:\n%s", tb.String())
	}
}

// TestWriteReport: the report carries the sections asked for, in
// metrics-then-trace order, on the writer or else in the file named by
// path (the writer then stays empty), and a file that cannot be
// created is an error.
func TestWriteReport(t *testing.T) {
	r := New()
	r.Counter("runs_total").Inc()
	_, sp := r.Span(context.Background(), "phase")
	sp.End()
	var full strings.Builder
	if err := r.WriteReport(&full, true, true, ""); err != nil {
		t.Fatal(err)
	}
	m, tr := strings.Index(full.String(), "runs_total 1"), strings.Index(full.String(), "TRACE")
	if m < 0 || tr < m || !strings.Contains(full.String(), "phase") {
		t.Fatalf("report on the writer lacks metrics then trace:\n%s", full.String())
	}
	for _, tc := range []struct {
		metrics, trace bool
		want           string
	}{
		{true, false, "# TYPE runs_total counter\nruns_total 1\n"},
		{false, true, full.String()[tr:]},
		{true, true, full.String()},
		{false, false, ""},
	} {
		path := filepath.Join(t.TempDir(), "report.txt")
		var w strings.Builder
		if err := r.WriteReport(&w, tc.metrics, tc.trace, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want || w.Len() != 0 {
			t.Errorf("metrics=%v trace=%v: file %q, writer %q; want file %q", tc.metrics, tc.trace, got, w.String(), tc.want)
		}
	}
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "report.txt")
	if err := r.WriteReport(io.Discard, true, true, missing); err == nil {
		t.Error("WriteReport into a missing directory returned nil")
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := New()
	r.Counter("pings_total").Inc()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	for _, tc := range []struct{ path, want string }{
		{"/metrics", "pings_total 1"},
		{"/trace", "TRACE"},
		{"/debug/pprof/", "profile"},
	} {
		resp, err := http.Get("http://" + addr + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body lacks %q:\n%.400s", tc.path, tc.want, body)
		}
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := newHistogram(0, 10, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-5) > 0.6 {
		t.Errorf("median %g, want ~5", q)
	}
	if !math.IsNaN((HistSnapshot{}).Quantile(0.5)) {
		t.Error("empty snapshot should return NaN")
	}
}

func TestSpanRingWraps(t *testing.T) {
	// At and around its capacity the ring keeps the newest n records,
	// oldest first.
	const n = 5
	for _, adds := range []int{0, n - 1, n, n + 1, 2*n + 3} {
		rg := newSpanRing(n)
		for i := 0; i < adds; i++ {
			rg.add(SpanRecord{Name: fmt.Sprintf("s%d", i)})
		}
		got := rg.snapshot()
		first := max(adds-n, 0)
		if len(got) != adds-first {
			t.Fatalf("%d adds: snapshot holds %d records, want %d", adds, len(got), adds-first)
		}
		for i, rec := range got {
			if want := fmt.Sprintf("s%d", first+i); rec.Name != want {
				t.Errorf("%d adds: snapshot[%d] = %s, want %s", adds, i, rec.Name, want)
			}
		}
	}
	off := newSpanRing(0)
	off.add(SpanRecord{Name: "dropped"})
	if got := off.snapshot(); got == nil || len(got) != 0 {
		t.Errorf("disabled ring snapshot = %#v, want empty", got)
	}
}
