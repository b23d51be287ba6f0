package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mstx/internal/server"
)

// jobSpec is one generated job: the spec the server receives, plus
// what the benchmark expects of its result.
type jobSpec struct {
	Spec server.Spec
	// Golden names the checked-in file the result text must equal
	// ("" = no golden).
	Golden string
	// Hit is whether the job must be served from the result cache.
	Hit bool
}

// key is the spec's wire form, the benchmark's stand-in for the
// server's content identity: the generator never writes two specs
// that normalize alike under different keys.
func (j jobSpec) key() string {
	b, err := json.Marshal(j.Spec)
	if err != nil {
		panic(err) // server.Spec always marshals
	}
	return string(b)
}

// workload is one traffic mix. Every round of a run starts a fresh
// server, runs the setup jobs untimed, then the timed jobs: job(k)
// for k = 0, 1, 2, … across the whole run.
type workload struct {
	name string
	why  string
	// durable runs the server with a checkpoint directory.
	durable bool
	// roundJobs is the timed job count of each round.
	roundJobs int
	setup     func(round int) []jobSpec
	job       func(k int) jobSpec
}

const (
	kindCampaign  = "campaign"
	kindMC        = "mc"
	kindSOC       = "soc"
	kindTranslate = "translate"
)

// kinds is the fixed reporting order of the job kinds.
var kinds = []string{kindCampaign, kindMC, kindSOC, kindTranslate}

// translateVariants are the param/method pairs translate jobs cycle
// through.
var translateVariants = [][2]string{
	{"mixer-iip3", "adaptive"}, {"mixer-p1db", "adaptive"}, {"lpf-cutoff", "adaptive"},
	{"mixer-iip3", "nominal-gains"}, {"mixer-p1db", "nominal-gains"}, {"lpf-cutoff", "nominal-gains"},
}

const (
	goldenE6 = "internal/experiments/testdata/e6_table2.golden"
	goldenE9 = "internal/experiments/testdata/e9_schedule.golden"
)

// splitmix64 is the seed mixer: distinct inputs give well-spread
// outputs, so per-job random choices do not correlate across seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedBase maps the workload seed to a 2^30-offset base for job
// seeds: far from the engines' special seeds 0 and 1 and from each
// other, with room for 2^20 jobs on either side.
func seedBase(seed int64) int64 {
	return 1<<30 + int64(splitmix64(uint64(seed))>>36)<<20
}

// rngAt returns a generator for the random choices of position i of
// the stream named by tag.
func rngAt(seed int64, tag uint64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ splitmix64(tag<<32|uint64(i))))))
}

// freshSpec is the service-default spec of kind with a fresh seed;
// variant picks the translate param and method.
func freshSpec(kind string, seed int64, variant int) server.Spec {
	sp := server.Spec{Kind: kind, Seed: seed}
	if kind == kindTranslate {
		v := translateVariants[variant%len(translateVariants)]
		sp.Param, sp.Method = v[0], v[1]
	}
	return sp
}

// smallSpec is the small shape of kind used by durable-mix and by the
// non-campaign kinds primed on cache-hits.
func smallSpec(kind string, seed int64, variant int) server.Spec {
	sp := freshSpec(kind, seed, variant)
	switch kind {
	case kindCampaign:
		sp.Patterns = 64
	case kindMC:
		sp.Devices, sp.CaptureN, sp.MCSamples = 2, 64, 1000
	case kindSOC:
		sp.TAMWidths, sp.Iterations = []int{8 + 8*(variant%4)}, 1
	case kindTranslate:
		sp.Samples = 1000
	}
	return sp
}

// coldCycle is cold-mix's kind order, in the ratio campaign 3 : mc 2 :
// soc 2 : translate 1. Sorted by latency (translate < soc < campaign <
// mc) the populations cover 0–12.5%, 12.5–37.5%, 37.5–75% and 75–100%
// of the jobs, so p50 falls inside campaign and p90 inside mc, never on
// a boundary between two populations. The order is the same for every
// seed and spreads the heavy kinds apart: with two clients, which jobs
// run side by side sets their latency, and a seed-shuffled order made
// that pairing, not the program, move the medians between runs.
var coldCycle = []string{
	kindCampaign, kindMC, kindSOC, kindCampaign, kindTranslate, kindMC, kindCampaign, kindSOC,
}

// coldTranslateSamples is cold-mix's translate draw budget, 10× the
// service default. At the default a translate job is 10 ms of engine
// work and about 25 ms of server path while the concurrent job's
// engine holds both cores, and the median of a run's 12 translate jobs
// moved between 19 and 47 ms from run to run; at 10× the draws the
// engine dominates the job, as it does for the other kinds.
const coldTranslateSamples = 1000000

// coldSpec is the service-default spec of kind with a fresh seed,
// except for cold-mix's translate draw budget.
func coldSpec(kind string, seed int64, variant int) server.Spec {
	sp := freshSpec(kind, seed, variant)
	if kind == kindTranslate {
		sp.Samples = coldTranslateSamples
	}
	return sp
}

func coldMix(seed int64) *workload {
	base := seedBase(seed)
	return &workload{
		name: "cold-mix",
		why:  "every job has a fresh identity, so the engines do nearly all the work and the cache never hits",
		// Four rounds of 25 give the 100 jobs a p90 with ten samples
		// beyond it needs.
		roundJobs: 25,
		setup: func(round int) []jobSpec {
			// One warm-up job per kind fills the process-wide lazy
			// caches (FFT plans, window tables); warm-up seeds lie
			// below base, timed seeds at or above it.
			var js []jobSpec
			for i, kind := range kinds {
				js = append(js, jobSpec{Spec: coldSpec(kind, base-1-int64(round), i)})
			}
			return js
		},
		job: func(k int) jobSpec {
			switch k {
			case 0:
				return jobSpec{Spec: server.Spec{Kind: kindSOC}, Golden: goldenE9}
			case 1:
				return jobSpec{Spec: server.Spec{Kind: kindMC, Devices: 6, CaptureN: 1024}, Golden: goldenE6}
			}
			r := k - 2
			cycle := r / len(coldCycle)
			// Translate occurs once per cycle, so the cycle index
			// counts translate jobs and steps through the variants.
			return jobSpec{Spec: coldSpec(coldCycle[r%len(coldCycle)], base+int64(r), cycle)}
		},
	}
}

// cachePrimed is cache-hits' primed set: two distinct specs per kind.
// Campaign keeps its service-default size because a campaign hit still
// builds the stimulus before the cache lookup; the other kinds' hit
// cost does not depend on their size, so they are small to keep setup
// short.
func cachePrimed(seed int64) []jobSpec {
	base := seedBase(seed)
	var js []jobSpec
	for i := 0; i < 2; i++ {
		for _, kind := range kinds {
			sp := smallSpec(kind, base+int64(i), i)
			if kind == kindCampaign {
				sp = freshSpec(kind, base+int64(i), i)
			}
			js = append(js, jobSpec{Spec: sp})
		}
	}
	return js
}

func cacheHits(seed int64) *workload {
	primed := cachePrimed(seed)
	return &workload{
		name:      "cache-hits",
		why:       "every timed job repeats a primed spec, so the engines do no work and the server request path dominates",
		roundJobs: 1024,
		setup:     func(int) []jobSpec { return primed },
		job: func(k int) jobSpec {
			// Kinds rotate evenly; which of the kind's two specs is
			// drawn from the seed.
			kind := k % len(kinds)
			pick := rngAt(seed, 2, k).Intn(2)
			j := primed[pick*len(kinds)+kind]
			j.Hit = true
			return j
		},
	}
}

// durablePrimed is durable-mix's primed set: two small specs per kind,
// seeded below base so fresh jobs never repeat them.
func durablePrimed(seed int64) []jobSpec {
	base := seedBase(seed)
	var js []jobSpec
	for i := 0; i < 2; i++ {
		for j, kind := range kinds {
			js = append(js, jobSpec{Spec: smallSpec(kind, base-1-int64(i*len(kinds)+j), i)})
		}
	}
	return js
}

// durableRoundJobs is durable-mix's timed job count per round.
const durableRoundJobs = 256

func durableMix(seed int64) *workload {
	primed := durablePrimed(seed)
	base := seedBase(seed)
	return &workload{
		name:      "durable-mix",
		why:       "a checkpointed server with one fresh small job in four, so ledger rewrites and engine checkpoint saves dominate",
		durable:   true,
		roundJobs: durableRoundJobs,
		setup:     func(int) []jobSpec { return primed },
		job: func(k int) jobSpec {
			group := k / 4
			rng := rngAt(seed, 3, group)
			freshSlot := rng.Intn(4)
			if k%4 == freshSlot {
				kind := kinds[(group+int(seed&3))%len(kinds)]
				return jobSpec{Spec: smallSpec(kind, base+int64(group), group)}
			}
			j := primed[rngAt(seed, 4, k).Intn(len(primed))]
			j.Hit = true
			return j
		},
	}
}

// workloadByName builds the named workload for seed.
func workloadByName(name string, seed int64) (*workload, error) {
	switch name {
	case "cold-mix":
		return coldMix(seed), nil
	case "cache-hits":
		return cacheHits(seed), nil
	case "durable-mix":
		return durableMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-mix, cache-hits or durable-mix)", name)
}
