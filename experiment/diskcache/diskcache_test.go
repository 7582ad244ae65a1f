package diskcache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/topology"
)

// testScenario returns a tiny cacheable damped scenario.
func testScenario(t *testing.T, pulses int) experiment.Scenario {
	t.Helper()
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	return experiment.Scenario{
		Graph: g, ISP: 0, Config: cfg, Pulses: pulses,
		Watch: []experiment.PenaltyWatch{{Router: 0, Peer: 1}},
	}
}

// entryFile finds the single .run entry under dir (excluding quarantine).
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && info.Name() == "quarantine" {
			return filepath.SkipDir
		}
		if !info.IsDir() && filepath.Ext(path) == ".run" {
			found = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == "" {
		t.Fatal("no cache entry file found")
	}
	return found
}

func TestRoundTrip(t *testing.T) {
	sc := testScenario(t, 2)
	res, err := experiment.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("scenario unexpectedly unfingerprintable")
	}
	if err := c.Store(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load(key)
	if err != nil || !ok {
		t.Fatalf("Load = ok=%t err=%v, want hit", ok, err)
	}
	// Headline scalars must survive exactly.
	if got.ConvergenceTime != res.ConvergenceTime || got.MessageCount != res.MessageCount ||
		got.MaxDamped != res.MaxDamped || got.NoisyReuses != res.NoisyReuses ||
		got.Pulses != res.Pulses || got.EndTime != res.EndTime {
		t.Fatalf("scalars differ after round trip:\n got %+v\nwant %+v", got, res)
	}
	// Series and maps must survive byte-for-byte.
	if !reflect.DeepEqual(got.Updates.Times(), res.Updates.Times()) {
		t.Error("update series differs after round trip")
	}
	if !reflect.DeepEqual(got.Damped.Points(), res.Damped.Points()) {
		t.Error("damped step series differs after round trip")
	}
	w := experiment.PenaltyWatch{Router: 0, Peer: 1}
	if !reflect.DeepEqual(got.PenaltyTraces[w].Points(), res.PenaltyTraces[w].Points()) {
		t.Error("penalty trace differs after round trip")
	}
	if !reflect.DeepEqual(got.Phases, res.Phases) {
		t.Error("phase decomposition differs after round trip")
	}
}

func TestLoadMissing(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load("deadbeef:p1"); ok || err != nil {
		t.Fatalf("Load(missing) = ok=%t err=%v, want clean miss", ok, err)
	}
}

// TestCorruptEntryQuarantined covers every corruption class: truncation, bad
// magic, flipped payload byte, and garbage. Each must be quarantined and
// reported as a miss — never an error, never a crash.
func TestCorruptEntryQuarantined(t *testing.T) {
	sc := testScenario(t, 1)
	res, err := experiment.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sc.Fingerprint()
	corruptions := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"flipped-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"garbage", func(b []byte) []byte { return []byte("not a cache entry at all") }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store(key, res); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok, err := c.Load(key)
			if err != nil || ok || got != nil {
				t.Fatalf("Load(corrupt) = %v ok=%t err=%v, want quiet miss", got, ok, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still present under its valid name")
			}
			q := filepath.Join(dir, "quarantine", filepath.Base(path))
			if _, err := os.Stat(q); err != nil {
				t.Errorf("corrupt entry not quarantined: %v", err)
			}
			_, _, _, corrupt, _ := c.Stats()
			if corrupt != 1 {
				t.Errorf("corrupt stat = %d, want 1", corrupt)
			}
			// The key must be reusable: a fresh store and load succeed.
			if err := c.Store(key, res); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Load(key); !ok || err != nil {
				t.Fatalf("re-store after quarantine: ok=%t err=%v", ok, err)
			}
		})
	}
}

// TestNoTempLeftovers checks the atomic write leaves no temp files behind.
func TestNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t, 1)
	res, err := experiment.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sc.Fingerprint()
	if err := c.Store(key, res); err != nil {
		t.Fatal(err)
	}
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && len(info.Name()) > 4 && info.Name()[:5] == ".tmp-" {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLayeredUnderRunCache wires the disk cache under an in-memory RunCache
// and checks the layering: a fresh RunCache with a warm disk serves from
// disk without re-running, and fresh runs land on disk for the next process.
func TestLayeredUnderRunCache(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t, 2)

	// First "process": run through a cache layered on the (empty) disk.
	c1 := experiment.NewRunCache()
	c1.SetStore(disk)
	res1, err := c1.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, stores, _, _ := disk.Stats(); stores != 1 {
		t.Fatalf("disk stores = %d, want 1", stores)
	}

	// Second "process": fresh in-memory cache, same disk. The run must be
	// served from disk — prove it by making a from-scratch run impossible to
	// confuse: compare against res1's numbers.
	c2 := experiment.NewRunCache()
	c2.SetStore(disk)
	res2, err := c2.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := c2.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("c2 mem stats = hits %d misses %d, want 0/1", hits, misses)
	}
	if storeHits, _ := c2.StoreStats(); storeHits != 1 {
		t.Fatalf("c2 store hits = %d, want 1", storeHits)
	}
	if res2.ConvergenceTime != res1.ConvergenceTime || res2.MessageCount != res1.MessageCount {
		t.Fatalf("disk-served result differs: %v/%d vs %v/%d",
			res2.ConvergenceTime, res2.MessageCount, res1.ConvergenceTime, res1.MessageCount)
	}
	// A disk-loaded Result must not be written straight back.
	if _, _, stores, _, _ := disk.Stats(); stores != 1 {
		t.Fatalf("disk stores after re-load = %d, want still 1", stores)
	}

	// Sweep path: one point warm on disk, two cold. Only the cold ones run
	// and get stored.
	c3 := experiment.NewRunCache()
	c3.SetStore(disk)
	pts, err := c3.Sweep(sc, []int{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Err != nil || p.Result == nil {
			t.Fatalf("sweep point n=%d failed: %v", p.Pulses, p.Err)
		}
	}
	if storeHits, _ := c3.StoreStats(); storeHits != 1 {
		t.Errorf("sweep store hits = %d, want 1 (the p=2 entry)", storeHits)
	}
	if _, _, stores, _, _ := disk.Stats(); stores != 3 {
		t.Errorf("disk stores after sweep = %d, want 3 (p=1, p=2, p=3)", stores)
	}
	if pts[1].Result.MessageCount != res1.MessageCount {
		t.Error("disk-served sweep point differs from the original run")
	}
}

// TestNoSeriesServedFromFullEntry pins the store's compatibility rule: a
// full entry serves a NoSeries request with its series dropped, so a cache
// directory filled before NoSeries existed keeps serving, but a NoSeries
// entry never serves a request that needs the series.
func TestNoSeriesServedFromFullEntry(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := testScenario(t, 2)
	lean := full
	lean.NoSeries = true

	c1 := experiment.NewRunCache()
	c1.SetStore(disk)
	fullRes, err := c1.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.Run(lean)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process asks for the NoSeries point: it misses memory and its
	// own key on disk, and is served from the full entry without running.
	c2 := experiment.NewRunCache()
	c2.SetStore(disk)
	got, err := c2.Run(lean)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits, _ := c2.StoreStats(); storeHits != 1 {
		t.Fatalf("NoSeries request: store hits %d, want 1 (the full entry)", storeHits)
	}
	if got.Updates != nil || got.Damped != nil || got.NoisyReuseTimes != nil {
		t.Fatal("a NoSeries request was served a Result with series")
	}
	scalars := func(r *experiment.Result) []any {
		return []any{r.Pulses, r.FlapEnd, r.ConvergenceTime, r.MessageCount, r.MaxDamped,
			r.NoisyReuses, r.SilentReuses, r.Phases, r.OriginSuppressed, r.EndTime, r.Dropped,
			r.PenaltyTraces[full.Watch[0]].Points()}
	}
	if !reflect.DeepEqual(scalars(got), scalars(want)) {
		t.Fatalf("served from the full entry: %v, want a NoSeries run's %v", scalars(got), scalars(want))
	}
	if fullRes.Updates == nil {
		t.Fatal("dropping the series for a NoSeries request reached the full Result")
	}
	if _, _, stores, _, _ := disk.Stats(); stores != 1 {
		t.Fatalf("disk stores %d, want 1: a stored Result is not written back", stores)
	}

	// The reverse: with only a NoSeries entry on disk, a full request runs.
	disk2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c3 := experiment.NewRunCache()
	c3.SetStore(disk2)
	if _, err := c3.Run(lean); err != nil {
		t.Fatal(err)
	}
	c4 := experiment.NewRunCache()
	c4.SetStore(disk2)
	res, err := c4.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits, _ := c4.StoreStats(); storeHits != 0 {
		t.Fatalf("full request: store hits %d, want 0 (a NoSeries entry cannot serve it)", storeHits)
	}
	if res.Updates == nil || res.Updates.Count() != res.MessageCount {
		t.Fatal("a full request was served without its series")
	}
}

// TestStoreUnencodableResultCounted: a Result carrying process-local state
// that gob cannot encode must fail Store with an error, not panic, and the
// failure must show in the stats.
func TestStoreNilResult(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("k", nil); err == nil {
		t.Fatal("Store(nil) succeeded, want error")
	}
}

func TestSanitizeKey(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"abc123:p4", "abc123_p4"},
		{"../escape", ".._escape"},
		{"a/b\\c", "a_b_c"},
	} {
		if got := sanitizeKey(tc.in); got != tc.want {
			t.Errorf("sanitizeKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Distinct keys must stay distinct after sanitizing.
	if sanitizeKey("k:p1") == sanitizeKey("k:p2") {
		t.Error("distinct keys collide after sanitizing")
	}
}
