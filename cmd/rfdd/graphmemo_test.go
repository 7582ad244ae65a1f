package main

import (
	"cmp"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rfd/experiment"
	"rfd/topology"
)

func getHealthz(t testing.TB, h http.Handler) healthz {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("bad healthz body %q: %v", rec.Body, err)
	}
	return hz
}

// memoised returns the graph the server keeps for key; a lookup that has to
// generate it fails the test.
func memoised(t *testing.T, s *server, key topology.Shape) *topology.Graph {
	t.Helper()
	_, generated, _ := s.graphs.stats()
	g, err := s.graphs.get(key)
	if _, after, _ := s.graphs.stats(); err != nil || after != generated {
		t.Fatalf("no graph remembered for %+v", key)
	}
	return g
}

func digest(t *testing.T, g *topology.Graph) string {
	t.Helper()
	h, err := g.TSVDigest()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScenarioMemo: a repeated shape builds no graph — whatever the damping,
// the pulse counts, the field order or (for a mesh) the seed — replies do not
// change, /healthz shows the counters, and the shared graph comes out of the
// sweeps it served exactly as it went in (nobody attached an origin to it).
func TestScenarioMemo(t *testing.T) {
	s := testServer(t, serverConfig{Snapshots: 4})
	h := s.routes()
	const body = `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1,2]}`
	first, _ := postSweep(t, h, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep status = %d, body %s", first.Code, first.Body)
	}
	if hz := getHealthz(t, h); hz.ScenarioMemoHits != 0 || hz.ScenarioMemoMisses != 1 || hz.ScenarioMemoSize != 1 {
		t.Fatalf("after one sweep: memo hits/misses/size = %d/%d/%d, want 0/1/1", hz.ScenarioMemoHits, hz.ScenarioMemoMisses, hz.ScenarioMemoSize)
	}
	second, _ := postSweep(t, h, body)
	if second.Body.String() != first.Body.String() {
		t.Fatalf("memo-served reply differs:\n%s\n%s", first.Body, second.Body)
	}
	if hz := getHealthz(t, h); hz.ScenarioMemoHits != 1 || hz.ScenarioMemoMisses != 1 || hz.ScenarioMemoSize != 1 {
		t.Fatalf("after the repeat: memo hits/misses/size = %d/%d/%d, want 1/1/1", hz.ScenarioMemoHits, hz.ScenarioMemoMisses, hz.ScenarioMemoSize)
	}

	// Everything but the shape collapses onto the one remembered graph.
	for _, same := range []string{
		`{"pulses":[3], "damping":"juniper", "cols":4, "rows":4}`,
		`{"topology":"mesh","rows":4,"cols":4,"seed":77,"pulses":[1]}`,
		`{"rows":4,"cols":4,"damping":"cisco","rcn":true,"pulses":[1]}`,
	} {
		if rec, _ := postSweep(t, h, same); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", same, rec.Code, rec.Body)
		}
	}
	if hits, misses, size := s.graphs.stats(); hits != 4 || misses != 1 || size != 1 {
		t.Fatalf("same-shape requests: memo hits/misses/size = %d/%d/%d, want 4/1/1", hits, misses, size)
	}
	// An internet topology does depend on its seed.
	for _, seed := range []int{1, 2, 1} {
		body := fmt.Sprintf(`{"topology":"internet","nodes":20,"seed":%d,"pulses":[0]}`, seed)
		if rec, _ := postStream(t, h, body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", body, rec.Code)
		}
	}
	if hits, misses, size := s.graphs.stats(); hits != 5 || misses != 3 || size != 3 {
		t.Fatalf("internet seeds 1,2,1: memo hits/misses/size = %d/%d/%d, want 5/3/3", hits, misses, size)
	}

	fresh, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	kept := memoised(t, s, topology.Shape{Family: "mesh", Rows: 4, Cols: 4})
	if kept.NumNodes() != fresh.NumNodes() || kept.NumEdges() != fresh.NumEdges() || digest(t, kept) != digest(t, fresh) {
		t.Fatalf("the shared mesh changed while serving sweeps: %v (digest %s), a fresh one is %v (digest %s)",
			kept, digest(t, kept), fresh, digest(t, fresh))
	}
	freshInet, err := topology.InternetDerived(topology.DefaultInternetConfig(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	keptInet := memoised(t, s, topology.Shape{Family: "internet", Nodes: 20, Seed: 2})
	if keptInet.NumNodes() != 20 || keptInet.NumEdges() != freshInet.NumEdges() || digest(t, keptInet) != digest(t, freshInet) {
		t.Fatalf("the shared internet graph changed while serving sweeps: %v, a fresh one is %v", keptInet, freshInet)
	}
}

// TestScenarioMemoKeysLikeUncached makes the memo key's claim executable: the
// scenario a request gets around a remembered graph — possibly remembered on
// behalf of a request with another seed — has the cache key and ispAS of the
// scenario experiment.DaemonScenario builds from scratch out of the same names
// and sizes, so memo-served and uncached requests can never disagree about
// what they are asking the run cache for.
func TestScenarioMemoKeysLikeUncached(t *testing.T) {
	graphs := newGraphMemo(experiment.DefaultPoolSize)
	for _, req := range []experiment.Spec{
		{Rows: 4, Cols: 5, Damping: "cisco", Seed: 1},
		{Rows: 4, Cols: 5, Damping: "cisco", Seed: 2},
		{Cols: 5, Rows: 4, Nodes: 99, Damping: "juniper", RCN: true, Seed: 3, FlapIntervalS: 30},
		{Topology: "mesh"},
		{Topology: "internet", Nodes: 25, Damping: "cisco", Seed: 1},
		{Topology: "internet", Nodes: 25, Damping: "cisco", Seed: 2},
		{Topology: "internet", Nodes: 25, Seed: 1, Damping: "juniper"},
		{Topology: "internet", Nodes: 25, Seed: 1, Rows: 9, Cols: 9}, // the other family's sizes are not part of a shape
	} {
		got, _, err := req.Scenario(experiment.SmallOptions(), graphs.get)
		if err != nil {
			t.Fatal(err)
		}
		opts := experiment.SmallOptions()
		opts.MeshRows, opts.MeshCols = cmp.Or(req.Rows, opts.MeshRows), cmp.Or(req.Cols, opts.MeshCols)
		opts.InternetNodes = cmp.Or(req.Nodes, opts.InternetNodes)
		opts.Seed = cmp.Or(req.Seed, opts.Seed)
		if req.FlapIntervalS != 0 {
			opts.FlapInterval = time.Duration(req.FlapIntervalS * float64(time.Second))
		}
		want, err := experiment.DaemonScenario(opts, req.Topology, req.Damping, req.RCN)
		if err != nil {
			t.Fatal(err)
		}
		gotKey, ok1 := got.Fingerprint()
		wantKey, ok2 := want.Fingerprint()
		if !ok1 || !ok2 || gotKey != wantKey || got.ISP != want.ISP {
			t.Errorf("%+v: memo-served scenario keys %s (isp %d), built from scratch %s (isp %d)", req, gotKey, got.ISP, wantKey, want.ISP)
		}
	}
	if hits, misses, size := graphs.stats(); hits != 4 || misses != 4 || size != 4 {
		t.Fatalf("memo hits/misses/size = %d/%d/%d, want 4/4/4 (4x5 mesh, default mesh, internet-25 seeds 1 and 2)", hits, misses, size)
	}
}

// TestScenarioMemoRefusedRequests: a request answered 400 — for any reason,
// including one only the topology generator finds — builds and remembers
// nothing, even when its shape is already remembered.
func TestScenarioMemoRefusedRequests(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	if rec, _ := postSweep(t, h, `{"rows":4,"cols":4,"pulses":[0]}`); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, body := range []string{
		`{"rows":4,"cols":4,"damping":"strict"}`,
		`{"rows":4,"cols":4,"rcn":true}`,
		`{"rows":4,"cols":4,"topology":"hypercube"}`,
		`{"rows":4,"cols":4,"damping_engine":"sundial"}`,
		`{"rows":4,"cols":4,"flap_interval_s":-1}`,
		`{"rows":4,"cols":4,"pulses":[` + strings.Repeat("1,", 64) + `1]}`,
		`{"rows":-4,"cols":4}`,
		`{"rows":4,"cols":4,"nodes":-1}`,
		`{"rows":1,"cols":1}`,
		`{"topology":"internet","nodes":1}`,
		`{"rows":70000,"cols":4}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", body, rec.Code, rec.Body)
		}
	}
	if hits, misses, size := s.graphs.stats(); hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after refused requests: memo hits/misses/size = %d/%d/%d, want 0/1/1", hits, misses, size)
	}
}

// TestScenarioMemoBound: the memo holds as many shapes as the snapshot pool
// holds snapshots; one shape more evicts the least recently used, and asking
// for that one again rebuilds it with a byte-identical reply.
func TestScenarioMemoBound(t *testing.T) {
	if s := testServer(t, serverConfig{}); s.graphs.cache.Max() != experiment.DefaultPoolSize {
		t.Fatalf("memo bound with the pool off = %d, want experiment.DefaultPoolSize (%d)", s.graphs.cache.Max(), experiment.DefaultPoolSize)
	}
	const capacity = 3
	s := testServer(t, serverConfig{Snapshots: capacity})
	h := s.routes()
	shape := func(i int) string {
		return fmt.Sprintf(`{"rows":3,"cols":%d,"damping":"cisco","pulses":[0,1]}`, 3+i)
	}
	replies := make([]string, capacity+1)
	for i := 0; i < capacity; i++ {
		rec, _ := postSweep(t, h, shape(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("shape %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		replies[i] = rec.Body.String()
	}
	// Touch shape 0, so shape 1 is the least recently used.
	postSweep(t, h, shape(0))
	postSweep(t, h, shape(capacity))
	if hits, misses, size := s.graphs.stats(); hits != 1 || misses != capacity+1 || size != capacity {
		t.Fatalf("capacity+1 shapes: memo hits/misses/size = %d/%d/%d, want 1/%d/%d", hits, misses, size, capacity+1, capacity)
	}
	for _, i := range []int{0, 2, capacity} { // still remembered
		postSweep(t, h, shape(i))
	}
	if hits, misses, _ := s.graphs.stats(); hits != 4 || misses != capacity+1 {
		t.Fatalf("survivors: memo hits/misses = %d/%d, want 4/%d — the wrong shape was evicted", hits, misses, capacity+1)
	}
	again, _ := postSweep(t, h, shape(1))
	if hits, misses, size := s.graphs.stats(); hits != 4 || misses != capacity+2 || size != capacity {
		t.Fatalf("evicted shape again: memo hits/misses/size = %d/%d/%d, want 4/%d/%d", hits, misses, size, capacity+2, capacity)
	}
	if again.Body.String() != replies[1] {
		t.Fatalf("rebuilt shape answers differently:\n%s\n%s", replies[1], again.Body)
	}
}

// TestScenarioMemoConcurrent interleaves identical requests, requests for the
// same shape under different damping and requests for other shapes, on both
// sweep endpoints of one server. Under -race this is the check that a graph
// shared between in-flight sweeps (and the digest they race to memoise on it)
// is only ever read.
func TestScenarioMemoConcurrent(t *testing.T) {
	s := testServer(t, serverConfig{Snapshots: 4, Concurrency: 4, Queue: 64})
	h := s.routes()
	bodies := []string{
		`{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1]}`,
		`{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1]}`,
		`{"rows":4,"cols":4,"damping":"juniper","pulses":[1,2]}`,
		`{"rows":4,"cols":4,"pulses":[1],"seed":5}`,
		`{"rows":3,"cols":5,"damping":"cisco","pulses":[0,1]}`,
		`{"topology":"internet","nodes":20,"damping":"cisco","pulses":[0,1]}`,
		`{"topology":"internet","nodes":20,"damping":"cisco","rcn":true,"pulses":[1]}`,
	}
	const rounds = 3
	points := make([][]string, len(bodies)) // per body: every reply's points, as JSON
	var mu sync.Mutex
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, body := range bodies {
			wg.Add(1)
			go func(i int, body string, stream bool) {
				defer wg.Done()
				var pts []sweepPointJSON
				if stream {
					rec, evs := postStream(t, h, body)
					if rec.Code != http.StatusOK || len(evs) == 0 || evs[len(evs)-1].Error != "" {
						t.Errorf("stream %s: status %d, events %+v", body, rec.Code, evs)
						return
					}
					pts = evs[len(evs)-1].Points
				} else {
					rec, resp := postSweep(t, h, body)
					if rec.Code != http.StatusOK {
						t.Errorf("sweep %s: status %d, body %s", body, rec.Code, rec.Body)
						return
					}
					pts = resp.Points
				}
				enc, _ := json.Marshal(pts)
				mu.Lock()
				points[i] = append(points[i], string(enc))
				mu.Unlock()
			}(i, body, (round+i)%2 == 1)
		}
	}
	wg.Wait()
	for i, got := range points {
		for _, p := range got {
			if p != got[0] {
				t.Errorf("%s answered differently across requests:\n%s\n%s", bodies[i], got[0], p)
			}
		}
	}
	if points[0][0] != points[1][0] {
		t.Errorf("identical requests disagree:\n%s\n%s", points[0][0], points[1][0])
	}
	hits, misses, size := s.graphs.stats()
	if size != 3 || hits+misses != uint64(rounds*len(bodies)) || misses < 3 {
		t.Fatalf("memo hits/misses/size = %d/%d/%d, want 3 shapes kept over %d lookups", hits, misses, size, rounds*len(bodies))
	}
	fresh, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kept := memoised(t, s, topology.Shape{Family: "mesh", Rows: 4, Cols: 4}); kept.NumNodes() != 16 || digest(t, kept) != digest(t, fresh) {
		t.Fatalf("the shared mesh changed under concurrent sweeps: %v", kept)
	}
}

// BenchmarkSweepCacheWarm is the fast path rfdd-mix's median measures, in
// process: one cold request, then b.N byte-identical ones over real HTTP.
// Every one of those must build no graph.
func BenchmarkSweepCacheWarm(b *testing.B) {
	s := newServer(serverConfig{Workers: 1, Concurrency: 2, Queue: 4, Snapshots: experiment.DefaultPoolSize})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	const body = `{"topology":"internet","nodes":300,"damping":"cisco","pulses":[0,1,2],"seed":7}`
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if hz := getHealthz(b, s.routes()); hz.ScenarioMemoMisses != 1 || hz.ScenarioMemoHits != uint64(b.N) || hz.CacheMisses != 3 {
		b.Fatalf("memo hits/misses = %d/%d, run-cache misses %d; want %d/1 and 3: a cache-warm request generated or simulated something",
			hz.ScenarioMemoHits, hz.ScenarioMemoMisses, hz.CacheMisses, b.N)
	}
}
