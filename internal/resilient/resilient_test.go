package resilient

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mstx/internal/obs"
)

func TestCtxErrTaxonomy(t *testing.T) {
	if err := CtxErr(context.Background()); err != nil {
		t.Fatalf("live context produced %v", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	err := CtxErr(canceled)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled context not ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("original context.Canceled lost: %v", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Errorf("cancel classified as deadline: %v", err)
	}
	if !Interrupted(err) {
		t.Errorf("Interrupted(%v) = false", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err = CtxErr(expired)
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("expired context not ErrDeadline: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("original DeadlineExceeded lost: %v", err)
	}
	if !Interrupted(err) {
		t.Errorf("Interrupted(%v) = false", err)
	}

	if Interrupted(errors.New("boom")) {
		t.Error("ordinary error classified as interruption")
	}
}

func TestCallRecoversPanics(t *testing.T) {
	err := Call("test.site", func() error { panic("worker died") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not converted: %v", err)
	}
	if pe.Site != "test.site" || pe.Value != "worker died" {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "resilient") {
		t.Errorf("stack not captured: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "test.site") {
		t.Errorf("Error() = %q", pe.Error())
	}

	// Plain errors and success pass through untouched.
	want := errors.New("plain")
	if err := Call("s", func() error { return want }); err != want {
		t.Errorf("error rewritten: %v", err)
	}
	if err := Call("s", func() error { return nil }); err != nil {
		t.Errorf("success rewritten: %v", err)
	}
}

func TestCallRecordsToObs(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	_ = Call("obs.site", func() error { panic(1) })
	if got := reg.Counter("resilient_panics_total").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	found := false
	for _, sp := range reg.Spans() {
		if sp.Name == "panic:obs.site" {
			found = true
		}
	}
	if !found {
		t.Error("no panic span recorded")
	}
}

func TestGoDeliversPanicsAndErrors(t *testing.T) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []error
	onErr := func(err error) {
		mu.Lock()
		got = append(got, err)
		mu.Unlock()
	}
	Go(&wg, "go.site", func() error { panic("dead") }, onErr)
	Go(&wg, "go.site", func() error { return errors.New("failed") }, onErr)
	Go(&wg, "go.site", func() error { return nil }, onErr)
	wg.Wait()
	if len(got) != 2 {
		t.Fatalf("onErr called %d times, want 2: %v", len(got), got)
	}
}

// The unit tests' failpoint sites. They register at package init like
// the engines' sites; no other test binary links them.
var (
	fpTestA     = Site("test.a")
	fpTestErr   = Site("test.err")
	fpTestOnce  = Site("test.once")
	fpTestPanic = Site("test.panic")
	fpTestDelay = Site("test.delay")
)

func TestFailpointDisabledIsInert(t *testing.T) {
	Install(nil)
	if err := Fire(fpTestA); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
}

func TestFailpointActions(t *testing.T) {
	fp := NewFailpoints()
	Install(fp)
	defer Install(nil)

	// Unarmed sites count hits and do nothing.
	if err := Fire(fpTestA); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if fp.Hits("test.a") != 1 {
		t.Errorf("hits = %d, want 1", fp.Hits("test.a"))
	}

	// Error action with After: skips the first N firings.
	boom := errors.New("injected")
	fp.Set("test.err", Action{Err: boom, After: 2})
	for i := 0; i < 2; i++ {
		if err := Fire(fpTestErr); err != nil {
			t.Fatalf("fired before After: %v", err)
		}
	}
	if err := Fire(fpTestErr); !errors.Is(err, boom) {
		t.Fatalf("armed error not returned: %v", err)
	}
	if fp.Applied("test.err") != 1 {
		t.Errorf("applied = %d, want 1", fp.Applied("test.err"))
	}

	// Times bounds repeated application.
	fp.Set("test.once", Action{Err: boom, Times: 1})
	if err := Fire(fpTestOnce); !errors.Is(err, boom) {
		t.Fatal("Times=1 action did not apply")
	}
	if err := Fire(fpTestOnce); err != nil {
		t.Fatalf("Times=1 action applied twice: %v", err)
	}

	// Panic action.
	fp.Set("test.panic", Action{PanicValue: "kaboom"})
	err := Call("test.panic", func() error { return Fire(fpTestPanic) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("panic action not raised: %v", err)
	}

	// Delay action (pure delay returns nil).
	fp.Set("test.delay", Action{Delay: 10 * time.Millisecond})
	t0 := time.Now()
	if err := Fire(fpTestDelay); err != nil {
		t.Fatalf("delay returned %v", err)
	}
	if time.Since(t0) < 10*time.Millisecond {
		t.Error("delay not applied")
	}

	// Clear disarms but keeps counting.
	fp.Clear("test.err")
	if err := Fire(fpTestErr); err != nil {
		t.Fatalf("cleared site still armed: %v", err)
	}

	// The zero Failpoint names no registered site.
	err = Call("test.zero", func() error { return Fire(Failpoint{}) })
	if !errors.As(err, &pe) {
		t.Fatalf("Fire(Failpoint{}) with a set installed returned %v, want a panic", err)
	}
}

// TestSiteRegistry: a registered site is listed by Sites, and a second
// registration of a name panics.
func TestSiteRegistry(t *testing.T) {
	if fpTestA.name != "test.a" {
		t.Fatalf("Site returned %q", fpTestA.name)
	}
	found := false
	for _, s := range Sites() {
		if s == "test.a" {
			found = true
		}
	}
	if !found {
		t.Errorf("registered site missing from Sites(): %v", Sites())
	}
	defer func() {
		if recover() == nil {
			t.Error("second Site(\"test.a\") did not panic")
		}
	}()
	Site("test.a")
}

type ckptState struct {
	Cursor int
	Values []float64
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := &Checkpointer{Dir: t.TempDir(), Resume: true}
	want := ckptState{Cursor: 7, Values: []float64{1.5, -2.25, 3}}
	if err := c.Save("unit", 3, want); err != nil {
		t.Fatal(err)
	}
	var got ckptState
	ok, err := c.Load("unit", 3, &got)
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if got.Cursor != want.Cursor || len(got.Values) != len(want.Values) {
		t.Fatalf("round trip lost state: %+v", got)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], want.Values[i])
		}
	}
}

func TestCheckpointDisabledAndMissing(t *testing.T) {
	// Nil and empty checkpointers are inert.
	var nilC *Checkpointer
	if err := nilC.Save("x", 1, ckptState{}); err != nil {
		t.Fatalf("nil Save: %v", err)
	}
	if ok, err := nilC.Load("x", 1, &ckptState{}); ok || err != nil {
		t.Fatalf("nil Load = %v, %v", ok, err)
	}
	if nilC.Enabled() || nilC.Interval() != 1 {
		t.Error("nil checkpointer not inert")
	}

	// Missing snapshot is (false, nil), not an error.
	c := &Checkpointer{Dir: t.TempDir(), Resume: true}
	if ok, err := c.Load("absent", 1, &ckptState{}); ok || err != nil {
		t.Fatalf("missing snapshot Load = %v, %v", ok, err)
	}

	// Resume off ignores an existing snapshot.
	if err := c.Save("fresh", 1, ckptState{Cursor: 1}); err != nil {
		t.Fatal(err)
	}
	noResume := &Checkpointer{Dir: c.Dir}
	if ok, err := noResume.Load("fresh", 1, &ckptState{}); ok || err != nil {
		t.Fatalf("Resume=false Load = %v, %v", ok, err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir, Resume: true}
	if err := c.Save("guard", 2, ckptState{Cursor: 5}); err != nil {
		t.Fatal(err)
	}

	// Version mismatch.
	if _, err := c.Load("guard", 3, &ckptState{}); err == nil {
		t.Error("version mismatch accepted")
	}

	// Name mismatch: copy the file under another name.
	raw, err := os.ReadFile(filepath.Join(dir, "guard.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "other.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("other", 2, &ckptState{}); err == nil {
		t.Error("name mismatch accepted")
	}

	// Bit flip in the payload region must trip the CRC (or the
	// container decode) — never load silently.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "guard.ckpt"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("guard", 2, &ckptState{}); err == nil {
		t.Error("corrupted snapshot accepted")
	}

	// Truncation.
	if err := os.WriteFile(filepath.Join(dir, "guard.ckpt"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("guard", 2, &ckptState{}); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestCheckpointSaveFailpoint(t *testing.T) {
	fp := NewFailpoints()
	boom := errors.New("disk gone")
	fp.Set("resilient.checkpoint.save", Action{Err: boom})
	Install(fp)
	defer Install(nil)
	c := &Checkpointer{Dir: t.TempDir()}
	if err := c.Save("x", 1, ckptState{}); !errors.Is(err, boom) {
		t.Fatalf("save failpoint not surfaced: %v", err)
	}
}

func TestCheckpointSaveOverwritesAtomically(t *testing.T) {
	c := &Checkpointer{Dir: t.TempDir(), Resume: true}
	for i := 0; i < 5; i++ {
		if err := c.Save("seq", 1, ckptState{Cursor: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got ckptState
	if ok, err := c.Load("seq", 1, &got); !ok || err != nil {
		t.Fatal(ok, err)
	}
	if got.Cursor != 4 {
		t.Fatalf("latest snapshot lost: %+v", got)
	}
	// No temp litter.
	ents, err := os.ReadDir(c.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("dir holds %d entries, want 1", len(ents))
	}
}

func BenchmarkFireDisabled(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire(fpTestA); err != nil {
			b.Fatal(err)
		}
	}
}
