// Package a is the engine-tagged leakjoin fixture: every spawned
// goroutine must reach a join point — a WaitGroup.Wait on all CFG
// paths, a package-wide Wait for a field group, a ctx-cancel select,
// or a drained result channel.
//
//mstxvet:engine
package a

import (
	"context"
	"sync"

	"resilient"
)

func work() error { return nil }

// Joined waits on every path: clean.
func Joined() {
	var wg sync.WaitGroup
	resilient.Go(&wg, "a.joined", work, nil)
	wg.Wait()
}

// JoinedDeferred waits via defer, which covers every path: clean.
func JoinedDeferred(early bool) {
	var wg sync.WaitGroup
	defer wg.Wait()
	resilient.Go(&wg, "a.deferred", work, nil)
	if early {
		return
	}
	work()
}

// SkippedWait only waits on one branch: a path leaks the goroutine.
func SkippedWait(flush bool) {
	var wg sync.WaitGroup
	resilient.Go(&wg, "a.skipped", work, nil) // want `WaitGroup.Wait for this spawn is skipped on some path`
	if flush {
		wg.Wait()
	}
}

// NeverWaited spawns into a group nobody waits on.
func NeverWaited() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `WaitGroup wg for this spawn is never waited \(and never escapes to a joiner\)`
		defer wg.Done()
	}()
}

// Pool is the start/stop split: the field group is waited in Stop.
type Pool struct {
	wg sync.WaitGroup
}

// Start spawns into the field group: clean because Stop waits.
func (p *Pool) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
	}()
}

// Stop joins everything Start spawned.
func (p *Pool) Stop() { p.wg.Wait() }

// LeakyPool has a field group nothing in the package ever waits on.
type LeakyPool struct {
	wg sync.WaitGroup
}

// Start spawns into the never-waited field group.
func (p *LeakyPool) Start() {
	p.wg.Add(1)
	go func() { // want `WaitGroup field wg for this spawn is never waited anywhere in the package`
		defer p.wg.Done()
	}()
}

// CloserChain waits the sim group only inside the closer goroutine:
// a Wait in another spawn's closure is not a join, so the sim spawn is
// reported even though the closer group is waited at top level.
func CloserChain(jobs chan int) {
	var simWG, closerWG sync.WaitGroup
	simWG.Add(1)
	go func() { // want `WaitGroup simWG for this spawn is never waited \(and never escapes to a joiner\)`
		defer simWG.Done()
		for j := range jobs {
			_ = j
		}
	}()
	closerWG.Add(1)
	go func() {
		defer closerWG.Done()
		simWG.Wait()
		close(jobs)
	}()
	closerWG.Wait()
}

// joinAll is a helper the group escapes to.
func joinAll(wg *sync.WaitGroup) { wg.Wait() }

// Escapes hands the group by address to a joiner: clean.
func Escapes() {
	var wg sync.WaitGroup
	resilient.Go(&wg, "a.escapes", work, nil)
	joinAll(&wg)
}

// CtxBounded runs until the context is cancelled: the select on
// ctx.Done is the join.
func CtxBounded(ctx context.Context, in chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-in:
				_ = v
			}
		}
	}()
}

// Drained sends one result the spawner receives on every path: clean.
func Drained() int {
	ch := make(chan int, 1)
	go func() {
		ch <- 1
	}()
	return <-ch
}

// HalfDrained only receives on one branch: a path leaks the goroutine.
func HalfDrained(keep bool) int {
	ch := make(chan int, 1)
	go func() { // want `result channel for this goroutine is not drained on every path`
		ch <- 1
	}()
	if keep {
		return <-ch
	}
	return 0
}

// Unjoined has no group, no ctx bound, and no result channel.
func Unjoined() {
	go func() { // want `goroutine spawned here never reaches a join point`
		_ = work()
	}()
}
