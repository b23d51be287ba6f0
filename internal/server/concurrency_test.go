package server

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// TestConcurrentIdenticalSubmits is the single-flight race test: N
// tenants submit M copies of the same job concurrently; the engine
// must run exactly once, every job must finish with the identical
// result, and every tenant must make full progress. Run under -race
// this also exercises the scheduler, cache and ledger locking.
func TestConcurrentIdenticalSubmits(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const tenants = 4
	const perTenant = 6
	srv, err := New(Config{
		Workers:            4,
		MaxQueuedTotal:     tenants * perTenant,
		MaxQueuedPerTenant: perTenant,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	jobs := make(map[string][]*Job) // tenant → jobs
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		tenant := string(rune('a' + i))
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j, err := srv.Submit(tenant, quickTranslate())
				if err != nil {
					t.Errorf("submit %s: %v", tenant, err)
					return
				}
				mu.Lock()
				jobs[tenant] = append(jobs[tenant], j)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var refText string
	for tenant, js := range jobs {
		if len(js) != perTenant {
			t.Fatalf("tenant %s: %d jobs admitted, want %d", tenant, len(js), perTenant)
		}
		for _, j := range js {
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("tenant %s job %s never finished", tenant, j.ID)
			}
			snap := srv.Snapshot(j)
			if snap.State != StateDone {
				t.Fatalf("tenant %s job %s ended %s %+v", tenant, j.ID, snap.State, snap.Error)
			}
			if refText == "" {
				refText = snap.Result.Text
			}
			if snap.Result.Text != refText {
				t.Fatalf("divergent result for job %s", j.ID)
			}
		}
	}

	// Single-flight: one engine run, everyone else a cache hit.
	c := srv.Registry().Counters()
	total := int64(tenants * perTenant)
	if c["server_cache_misses_total"] != 1 {
		t.Fatalf("engine ran %d times for one identity", c["server_cache_misses_total"])
	}
	if c["server_cache_hits_total"] != total-1 {
		t.Fatalf("cache hits %d, want %d", c["server_cache_hits_total"], total-1)
	}
	if c["server_jobs_completed_total"] != total {
		t.Fatalf("completed %d, want %d", c["server_jobs_completed_total"], total)
	}

	srv.Close()
	settle(t, baseline)
}

// TestConcurrentDistinctSubmits races distinct identities across
// tenants: no sharing is possible, so every job must compute, and the
// weighted queue must not lose or duplicate any.
func TestConcurrentDistinctSubmits(t *testing.T) {
	srv, err := New(Config{
		Workers:        4,
		Weights:        map[string]int{"heavy": 3},
		MaxQueuedTotal: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []*Job
	for i := 0; i < 12; i++ {
		tenant := "light"
		if i%2 == 0 {
			tenant = "heavy"
		}
		seed := int64(1000 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := quickTranslate()
			sp.Seed = seed
			j, err := srv.Submit(tenant, sp)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			all = append(all, j)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, j := range all {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never finished", j.ID)
		}
		if snap := srv.Snapshot(j); snap.State != StateDone {
			t.Fatalf("job %s ended %s %+v", j.ID, snap.State, snap.Error)
		}
	}
	c := srv.Registry().Counters()
	if c["server_cache_misses_total"] != 12 || c["server_cache_hits_total"] != 0 {
		t.Fatalf("distinct identities shared compute: misses %d hits %d",
			c["server_cache_misses_total"], c["server_cache_hits_total"])
	}
}

// liveWorkers returns the stacks of goroutines still running
// (*Server).worker. A worker already inside its deferred wg.Done has
// been joined, only its return is left, so it is not counted.
func liveWorkers() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var live []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "\nmstx/internal/server.(*Server).worker(") &&
			!strings.Contains(g, "sync.(*WaitGroup).Done(") {
			live = append(live, g)
		}
	}
	return live
}

// TestShutdownJoinsWorkers pins shutdown's join: neither the first
// stop nor a second one racing it may return while a scheduler worker
// is still running. A failpoint holds one engine lane, and with it the
// worker running its job, for well past stop(); the goroutine stacks
// are read straight after each call returns, without settling, so a
// missing wg.Wait on either of shutdown's paths shows as the held
// worker.
func TestShutdownJoinsWorkers(t *testing.T) {
	defer resilient.Install(nil)
	before := len(liveWorkers())
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 500 * time.Millisecond, Times: 1})
	resilient.Install(fp)
	j, err := srv.Submit("", quickTranslate())
	if err != nil {
		t.Fatal(err)
	}
	for fp.Applied("mcengine.lane") == 0 {
		select {
		case <-j.Done():
			t.Fatalf("job finished without reaching the held lane: %+v", srv.Snapshot(j))
		case <-time.After(time.Millisecond):
		}
	}

	// The first stop runs on its own goroutine and takes shutdown's
	// main path; once it has marked the server stopping, Kill takes
	// the already-stopping path while the worker is still held.
	first := make(chan []string, 1)
	go func() {
		srv.Close()
		first <- liveWorkers()
	}()
	stopping := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.stopping
	}
	for !stopping() {
		time.Sleep(time.Millisecond)
	}
	srv.Kill()
	second := liveWorkers()
	for name, live := range map[string][]string{"Close": <-first, "Kill after Close": second} {
		if len(live) > before {
			t.Errorf("%s returned with %d scheduler workers running (%d before New):\n%s",
				name, len(live), before, strings.Join(live, "\n\n"))
		}
	}
}
