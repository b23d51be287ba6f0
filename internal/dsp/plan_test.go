package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// transformOracle is Plan.Transform as a plain triple loop: the
// bit-reversal swap, then every stage's butterflies in order, indexing
// x directly. Transform must match it bit for bit.
func transformOracle(p *Plan, x []complex128) {
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	idx := 0
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		tw := p.tw[idx : idx+half]
		idx += half
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * tw[k]
				x[start+k] = even + odd
				x[start+k+half] = even - odd
			}
		}
	}
}

// TestTransformBitIdentical compares Plan.Transform against the oracle
// by Float64bits, real and imaginary parts, for every power-of-two
// length 1…8192 on random, impulse, DC and all-zero inputs.
func TestTransformBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8192; n *= 2 {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]func(i int) complex128{
			"random": func(int) complex128 { return complex(rng.NormFloat64()*1e5, rng.NormFloat64()) },
			"impulse": func(i int) complex128 {
				if i == n/3 {
					return complex(3.25, -1.5)
				}
				return 0
			},
			"dc":   func(int) complex128 { return complex(-0.7, 0.2) },
			"zero": func(int) complex128 { return 0 },
		}
		for name, f := range inputs {
			got := make([]complex128, n)
			for i := range got {
				got[i] = f(i)
			}
			want := append([]complex128(nil), got...)
			if err := p.Transform(got); err != nil {
				t.Fatal(err)
			}
			transformOracle(p, want)
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("n=%d %s bin %d: Transform %v, oracle %v", n, name, k, got[k], want[k])
				}
			}
		}
	}
}

// BenchmarkPlanTransform512 pairs Transform with the oracle loop at
// 512 points, the fast spectrum's half-length transform of a
// 1024-sample record.
func BenchmarkPlanTransform512(b *testing.B) {
	p, err := NewPlan(512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	src := make([]complex128, 512)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 512)
	b.Run("impl=plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			if err := p.Transform(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("impl=oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			transformOracle(p, x)
		}
	})
}
