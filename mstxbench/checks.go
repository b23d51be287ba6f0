package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"mstx/internal/server"
)

// digestJobs is how many leading timed jobs the run digest covers.
// Every run completes at least this many, so runs of one seed print
// the same digest whatever their length.
const digestJobs = 24

// checker validates job outputs; every failed check is one error
// against the job it names.
type checker struct {
	goldens map[string]string // path → content, trimmed like the golden tests
}

func newChecker(root string) (*checker, error) {
	c := &checker{goldens: make(map[string]string)}
	for _, p := range []string{goldenE6, goldenE9} {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		c.goldens[p] = strings.TrimRight(string(b), "\n")
	}
	return c, nil
}

// check returns why rec is wrong, or nil: refused, not done, partial,
// golden drift, a broken per-kind invariant, or the wrong cache path.
func (c *checker) check(rec *jobRecord) error {
	if rec.Err != nil {
		return rec.Err
	}
	s := rec.Snap
	if s.State != server.StateDone {
		return fmt.Errorf("job %s ended %s", s.ID, s.State)
	}
	res := s.Result
	if res == nil || res.Partial {
		return fmt.Errorf("job %s: missing or partial result", s.ID)
	}
	if s.CacheHit != rec.Job.Hit {
		return fmt.Errorf("job %s: cache hit %v, workload designed %v", s.ID, s.CacheHit, rec.Job.Hit)
	}
	if g := rec.Job.Golden; g != "" && strings.TrimRight(res.Text, "\n") != c.goldens[g] {
		return fmt.Errorf("job %s: result differs from %s", s.ID, g)
	}
	return invariants(rec.Job.Spec, res)
}

// invariants are the per-kind facts every correct result satisfies.
func invariants(sp server.Spec, res *server.Result) error {
	switch sp.Kind {
	case kindSOC:
		if res.SOC == nil || len(res.SOC.Rows) == 0 {
			return fmt.Errorf("soc: no sweep rows")
		}
		for _, r := range res.SOC.Rows {
			if r.BoundCycles > r.MakespanCycles {
				return fmt.Errorf("soc W=%d: bound %d > makespan %d", r.Width, r.BoundCycles, r.MakespanCycles)
			}
		}
	case kindCampaign:
		if res.Campaign == nil || res.Campaign.Detected > res.Campaign.Faults {
			return fmt.Errorf("campaign: detected exceeds faults or missing summary")
		}
	case kindTranslate:
		want := sp.Samples
		if want == 0 {
			want = 100000
		}
		if res.Translate == nil || res.Translate.Samples != want {
			return fmt.Errorf("translate: want %d samples", want)
		}
	case kindMC:
		if res.MC == nil || len(res.MC.Rows) != 3 {
			return fmt.Errorf("mc: want 3 rows")
		}
	}
	return nil
}

// memoSplit matches the memoized/spectra split in a campaign result's
// engine line. The split depends on the detection pool's schedule, so
// it varies between runs of one spec while every verdict stays fixed;
// comparisons across runs leave it out.
var memoSplit = regexp.MustCompile(`, \d+ memoized, \d+ spectra computed`)

// canonicalText is a result text without its schedule-dependent part.
func canonicalText(text string) string { return memoSplit.ReplaceAllString(text, "") }

// runDigest hashes (identity, canonical result text) of the first
// digestJobs timed jobs in job order.
func runDigest(jobs []jobRecord) (string, error) {
	if len(jobs) < digestJobs {
		return "", fmt.Errorf("digest needs %d timed jobs, run completed %d", digestJobs, len(jobs))
	}
	h := sha256.New()
	for i := 0; i < digestJobs; i++ {
		r := &jobs[i]
		if r.Index != i || r.Snap.Result == nil {
			return "", fmt.Errorf("digest: job %d missing or failed", i)
		}
		fmt.Fprintf(h, "%s\x00%s\x00", r.Snap.Identity, canonicalText(r.Snap.Result.Text))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
