package resilient

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// siteRegistry records every failpoint site name declared by the
// engines (via Site at package init), so the chaos suite can
// enumerate them and assert each one actually fires.
var (
	sitesMu sync.Mutex
	sites   = map[string]struct{}{}
)

// Failpoint is a registered failpoint site. Only Site makes one, so
// every Fire names a site the registry, and with it the chaos soak,
// knows about. Failpoints.Set, Hits and Applied take the site's name.
type Failpoint struct{ name string }

// Site registers a failpoint site name and returns its Failpoint.
// Engines declare their sites as package-level variables:
//
//	var fpLane = resilient.Site("mcengine.lane")
//
// so the set of sites is complete after package initialization. A
// name registers once: a second Site call with the same name panics,
// so a binary that links two registrations of one name fails at init.
func Site(name string) Failpoint {
	sitesMu.Lock()
	defer sitesMu.Unlock()
	if _, dup := sites[name]; dup {
		panic(fmt.Sprintf("resilient: failpoint site %q registered twice", name))
	}
	sites[name] = struct{}{}
	return Failpoint{name}
}

// Sites returns every registered failpoint site name, sorted.
func Sites() []string {
	sitesMu.Lock()
	defer sitesMu.Unlock()
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Action is what an armed failpoint does when reached. Zero fields are
// inert, so {Delay: d} is a pure delay and {Err: e} a pure error; a
// non-nil PanicValue wins over Err.
type Action struct {
	// Err is returned from Fire (after any delay).
	Err error
	// PanicValue, when non-nil, is raised with panic() — the way tests
	// exercise the quarantine path.
	PanicValue any
	// Delay is slept before the error/panic (or alone).
	Delay time.Duration
	// After skips the first After firings of the site, so a test can
	// land the action mid-run ("fail on the 21st lane").
	After int
	// Times bounds how often the action applies once reached; <= 0
	// means every firing.
	Times int
}

// Failpoints is an installable set of armed failpoints plus per-site
// hit accounting. The zero value is not usable; construct with
// NewFailpoints.
type Failpoints struct {
	mu      sync.Mutex
	armed   map[string]*armedAction
	hits    map[string]int
	applied map[string]int
}

type armedAction struct {
	a    Action
	seen int
	done int
}

// NewFailpoints builds an empty failpoint set.
func NewFailpoints() *Failpoints {
	return &Failpoints{
		armed:   map[string]*armedAction{},
		hits:    map[string]int{},
		applied: map[string]int{},
	}
}

// Set arms (or re-arms) the action at a site.
func (f *Failpoints) Set(site string, a Action) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed[site] = &armedAction{a: a}
}

// Clear disarms a site; hit counts are retained.
func (f *Failpoints) Clear(site string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.armed, site)
}

// Hits returns how many times Fire evaluated the site while this set
// was installed — armed or not — so tests can assert a site is
// actually reached by the engines.
func (f *Failpoints) Hits(site string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[site]
}

// Applied returns how many times the armed action actually triggered.
func (f *Failpoints) Applied(site string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied[site]
}

// active is the installed failpoint set; nil (the default, and the
// only production state) makes Fire a single atomic load.
var active atomic.Pointer[Failpoints]

// Install makes f the process-wide failpoint set; nil disarms
// everything again. Tests must Install(nil) when done (defer it).
func Install(f *Failpoints) { active.Store(f) }

// Fire evaluates the failpoint fp: with no set installed it returns
// nil immediately; otherwise it counts the hit and applies the armed
// action, if any — sleeping Delay, then panicking with PanicValue or
// returning Err. The zero Failpoint, which Site never returns, panics
// once a set is installed, so chaos tests cannot miss an unregistered
// site.
func Fire(fp Failpoint) error {
	f := active.Load()
	if f == nil {
		return nil
	}
	if fp.name == "" {
		panic("resilient: Fire on a Failpoint that Site did not return")
	}
	return f.fire(fp.name)
}

func (f *Failpoints) fire(site string) error {
	f.mu.Lock()
	f.hits[site]++
	var act *Action
	if ar := f.armed[site]; ar != nil {
		ar.seen++
		if ar.seen > ar.a.After && (ar.a.Times <= 0 || ar.done < ar.a.Times) {
			ar.done++
			f.applied[site]++
			a := ar.a
			act = &a
		}
	}
	f.mu.Unlock()
	if act == nil {
		return nil
	}
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.PanicValue != nil {
		panic(act.PanicValue)
	}
	return act.Err
}
