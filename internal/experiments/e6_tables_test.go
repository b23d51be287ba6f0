package experiments

import (
	"fmt"
	"math"
	"testing"

	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/tolerance"
)

// perCallTable2 is the Table 2 study as it ran before its device lanes
// shared carrier tables: every Measure call on a fresh sweep with
// private tables. It is the differential reference for Table2.
func perCallTable2(opts Table2Options) (*Table2Result, error) {
	return table2(opts, func(studies []e6Study, d *path.Path) (v [3]float64, err error) {
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

// TestTable2SharedTablesMatchPerCallSweeps compares Table2, whose lanes
// share one carrier-table set and measure each device on one sweep,
// with the per-call-sweep reference, bit for bit on every number a row
// carries: the error σ, each threshold sweep's losses and the MC
// cross-check. Several worker counts make the lanes race on the set's
// publishes; two capture lengths key different tables.
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
