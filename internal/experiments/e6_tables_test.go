package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mstx/internal/msignal"
	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/tolerance"
)

// perCallTable2 is the Table 2 study as it ran before its device lanes
// shared carrier tables and sweeps: every Measure call on a fresh
// sweep. It is the differential reference for Table2.
func perCallTable2(opts Table2Options) (*Table2Result, error) {
	return table2(opts, func(_ *params.Sweep, studies []e6Study, d *path.Path) (v [3]float64, err error) {
		for j, s := range studies {
			r, err := s.measure(new(params.Sweep), d)
			if err != nil {
				return v, err
			}
			v[j] = r.Delta()
		}
		return v, nil
	})
}

// TestTable2SharedTablesMatchPerCallSweeps compares Table2, whose
// workers each measure their devices on one sweep reading the
// process-wide carrier-table set, with the per-call-sweep reference,
// bit for bit on every number a row carries: the error σ, each
// threshold sweep's losses and the MC cross-check. Several worker
// counts make the lanes race on the set's publishes; two capture
// lengths key different tables.
func TestTable2SharedTablesMatchPerCallSweeps(t *testing.T) {
	for _, n := range []int{1024, 2048} {
		want, err := perCallTable2(Table2Options{Devices: 15, N: n, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			got, err := Table2(Table2Options{Devices: 15, N: n, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable2Bits(got, want); err != nil {
				t.Fatalf("N %d, workers %d: %v", n, workers, err)
			}
		}
	}
}

// TestTable2SweepPerWorker pins that a study measures on at most one
// sweep per engine worker, whatever the device count, and that the
// reused sweeps change no bit.
func TestTable2SweepPerWorker(t *testing.T) {
	want, err := perCallTable2(Table2Options{Devices: 9, N: 1024, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		sweeps := map[*params.Sweep]bool{}
		got, err := table2(Table2Options{Devices: 9, N: 1024, Seed: 3, Workers: workers},
			func(sw *params.Sweep, studies []e6Study, d *path.Path) ([3]float64, error) {
				mu.Lock()
				sweeps[sw] = true
				mu.Unlock()
				return measureDevice(sw, studies, d)
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(sweeps) == 0 || len(sweeps) > workers {
			t.Fatalf("workers %d: 9 devices measured on %d sweeps", workers, len(sweeps))
		}
		if err := sameTable2Bits(got, want); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}

// TestTable2SecondStudyReadsWarmTables runs one study shape twice in
// one process: the first study publishes its carrier tables to a
// flushed set, and the second must find every one of them, publishing
// none, and print the same bytes.
func TestTable2SecondStudyReadsWarmTables(t *testing.T) {
	opts := Table2Options{Devices: 4, N: 1024, Seed: 9, Workers: 2}
	flushTables()
	flushed := msignal.SharedTables()
	first, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := msignal.SharedTables()
	if before.Published == flushed.Published {
		t.Fatal("the first study published no table to a flushed set")
	}
	second, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if after := msignal.SharedTables(); after.Published != before.Published {
		t.Fatalf("the second study published %d tables on a warm set", after.Published-before.Published)
	}
	if got, want := second.Format(), first.Format(); got != want {
		t.Fatalf("the second study printed\n%s\nthe first\n%s", got, want)
	}
}

// flushTables publishes a byte cap's worth of new filler tables, which
// evicts every table the process-wide set held before.
func flushTables() {
	const n = 1 << 16
	base := float64(msignal.SharedTables().Published)
	for i := 0; i < msignal.TableSetBytes/8/n; i++ {
		new(msignal.CosTable).Cosines(msignal.ToneExpr, base+float64(i), 0, 1e9, n)
	}
}

// TestTable2ConcurrentStudies runs two golden-shape studies at once on
// a process-wide set flushed of their tables, so both race to publish
// the same keys; each must print the E6 golden. Run it under -race.
func TestTable2ConcurrentStudies(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "e6_table2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	flushTables()
	var (
		wg   sync.WaitGroup
		outs [2]string
		errs [2]error
	)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Table2(Table2Options{Devices: 6, N: 1024, Seed: 0, Workers: 2})
			if errs[i] = err; err == nil {
				outs[i] = res.Format()
			}
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if out != string(want) {
			t.Errorf("study %d of two concurrent ones differs from the E6 golden:\n%s", i, out)
		}
	}
}

// sameTable2Bits reports the first number that differs, bit for bit,
// between two Table 2 results.
func sameTable2Bits(got, want *Table2Result) error {
	if got.Devices != want.Devices || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("shape %d devices/%d rows, want %d/%d", got.Devices, len(got.Rows), want.Devices, len(want.Rows))
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if math.Float64bits(g.ErrSigma) != math.Float64bits(w.ErrSigma) {
			return fmt.Errorf("%s: err σ %v, want %v", w.Parameter, g.ErrSigma, w.ErrSigma)
		}
		if len(g.Sweep) != len(w.Sweep) {
			return fmt.Errorf("%s: %d sweep rows, want %d", w.Parameter, len(g.Sweep), len(w.Sweep))
		}
		for k := range w.Sweep {
			if g.Sweep[k].Label != w.Sweep[k].Label || !sameLossBits(g.Sweep[k].Losses, w.Sweep[k].Losses) {
				return fmt.Errorf("%s: sweep row %d %+v, want %+v", w.Parameter, k, g.Sweep[k], w.Sweep[k])
			}
		}
		if !sameLossBits(g.MC, w.MC) {
			return fmt.Errorf("%s: MC %+v, want %+v", w.Parameter, g.MC, w.MC)
		}
	}
	return nil
}

func sameLossBits(a, b tolerance.LossEstimate) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.FCL, b.FCL) && same(a.YL, b.YL) && same(a.GoodFraction, b.GoodFraction) &&
		same(a.FCLHalfWidth, b.FCLHalfWidth) && same(a.YLHalfWidth, b.YLHalfWidth) &&
		a.Samples == b.Samples && a.Converged == b.Converged
}
