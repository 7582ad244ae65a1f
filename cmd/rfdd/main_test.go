package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rfd/experiment"
)

func testServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 2
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Minute
	}
	return newServer(cfg)
}

func postSweep(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, sweepResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp sweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
	}
	return rec, resp
}

// TestServeRejectsBadFlags: a flag error is returned, not an exit, and comes
// before anything listens. The run cache lives in memory only, so there is
// no -cachedir.
func TestServeRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // were a row to parse, serve would drain at once
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-cachedir", "x"}, "flag provided but not defined: -cachedir"},
	} {
		if err := serve(ctx, tc.args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	rec, resp := postSweep(t, h, `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1,2]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if len(resp.Points) != 3 || resp.Error != "" {
		t.Fatalf("response = %+v", resp)
	}
	for i, want := range []int{0, 1, 2} {
		p := resp.Points[i]
		if p.Pulses != want || p.Error != "" {
			t.Fatalf("point %d = %+v", i, p)
		}
		if want > 0 && (p.ConvergenceSecs <= 0 || p.Messages <= 0) {
			t.Fatalf("point n=%d has empty measurements: %+v", want, p)
		}
	}

	// Same request again: served from the shared cache, no new misses.
	_, m1, _ := s.cache.Stats()
	rec2, _ := postSweep(t, h, `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1,2]}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second sweep status = %d", rec2.Code)
	}
	if hits, m2, _ := s.cache.Stats(); m2 != m1 || hits < 3 {
		t.Fatalf("second sweep not cache-served: hits=%d misses %d -> %d", hits, m1, m2)
	}
}

// partialSweep is a request whose first two points the run cache holds
// once warmPartial has run, and whose last point cannot finish within the
// 1 ms deadline: a 20×20 torus drains ten pulses in far more than that.
const partialSweep = `{"rows":20,"cols":20,"damping":"cisco","pulses":[0,1,10],"timeout_ms":1}`

func warmPartial(t *testing.T, h http.Handler) {
	t.Helper()
	if rec, _ := postSweep(t, h, `{"rows":20,"cols":20,"damping":"cisco","pulses":[0,1]}`); rec.Code != http.StatusOK {
		t.Fatalf("warming sweep: status %d, body %s", rec.Code, rec.Body)
	}
}

// TestSweepPartialFailure: a point that fails leaves the others' results in
// the reply, with the status of its failure and a top-level error. A valid
// request fails a point only by its deadline: the cached points resolve and
// the live one runs out of budget.
func TestSweepPartialFailure(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	warmPartial(t, h)
	rec, resp := postSweep(t, h, partialSweep)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 for a point past its deadline", rec.Code)
	}
	if resp.Error == "" {
		t.Fatal("no top-level error for a failed point")
	}
	if resp.Points[0].Error != "" || resp.Points[1].Error != "" || resp.Points[1].Messages == 0 {
		t.Fatalf("healthy points carry errors or no result: %+v", resp.Points)
	}
	if resp.Points[2].Error == "" {
		t.Fatal("the point past its deadline carries no error")
	}
}

// TestSweepBadRequests: every field of the request body has a rejection that
// names it — 400, on both sweep endpoints, before admission — and so do a
// field the request type does not have and a body that is not JSON.
func TestSweepBadRequests(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	for _, tc := range []struct {
		field, body, wantErr string
	}{
		{"(body)", `{`, "bad request body"},
		{"(unknown)", `{"pulse":[9]}`, `unknown field "pulse"`},
		{"topology", `{"topology":"hypercube"}`, `unknown topology family "hypercube"`},
		{"rows", `{"rows":2}`, "rows x cols 2x5 too small"},
		{"rows", `{"rows":-1}`, "negative topology size (rows -1,"},
		{"cols", `{"cols":1}`, "rows x cols 5x1 too small"},
		{"cols", `{"rows":1000,"cols":1000}`, "router limit"},
		{"nodes", `{"topology":"internet","nodes":2}`, "needs >= 3 nodes, got 2"},
		{"nodes", `{"topology":"fullmesh","nodes":1000}`, "link limit"},
		{"nodes", `{"topology":"ring","nodes":70000}`, "router limit"},
		{"nodes", `{"nodes":-5}`, "nodes -5)"},
		{"damping", `{"damping":"strict"}`, `unknown damping preset "strict"`},
		{"damping_engine", `{"damping":"cisco","damping_engine":"sundial"}`, `unknown field "damping_engine"`},
		{"rcn", `{"rcn":true}`, "EnableRCN requires damping"},
		{"pulses", `{"pulses":[` + strings.Repeat("1,", 64) + `1]}`, "too many pulse counts"},
		{"pulses", `{"pulses":3}`, "Spec.pulses"},
		// Pre-fix a negative count failed after the warm-up, as a 500, and
		// after the counts before it had run.
		{"pulses", `{"pulses":[-1]}`, "pulses: negative pulse count -1"},
		{"pulses", `{"pulses":[1,-3]}`, "pulses: negative pulse count -3"},
		{"seed", `{"seed":-1}`, "Spec.seed"},
		{"flap_interval_s", `{"flap_interval_s":-5}`, "flap_interval_s -5 outside"},
		{"flap_interval_s", `{"flap_interval_s":1e10}`, "flap_interval_s 1e+10 outside"},
		// One engine: the sharded one is reachable only through Scenario.Shards.
		{"shards", `{"shards":2}`, `unknown field "shards"`},
		{"timeout_ms", `{"timeout_ms":"soon"}`, "sweepRequest.timeout_ms"},
	} {
		for _, path := range []string{"/v1/sweep", "/v1/sweep/stream"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s on %s: status = %d, want 400", tc.field, tc.body, path, rec.Code)
				continue
			}
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: bad error body %q", tc.field, rec.Body)
			}
			if !strings.Contains(resp.Error, tc.wantErr) {
				t.Errorf("%s %s on %s: error %q does not mention %q", tc.field, tc.body, path, resp.Error, tc.wantErr)
			}
		}
	}
	if hits, misses, size := s.graphs.stats(); hits+misses != 0 || size != 0 {
		t.Errorf("refused requests touched the graph memo: %d hits, %d misses, %d kept", hits, misses, size)
	}
	if hits, misses, _ := s.cache.Stats(); hits+misses != 0 {
		t.Errorf("refused requests touched the run cache: %d hits, %d misses", hits, misses)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep status = %d, want 405", rec.Code)
	}
}

// TestOneVocabulary: the sweep body takes every name the CLIs take — "off" for
// no damping like rfdsim -damping off, ripe229 like rfddamp -params, and any
// rfdtopo -type family — and a spelled-out default is the default.
func TestOneVocabulary(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	replies := map[string]string{}
	for _, body := range []string{
		`{"rows":3,"cols":3,"pulses":[1]}`,
		`{"rows":3,"cols":3,"pulses":[1],"damping":"none"}`,
		`{"rows":3,"cols":3,"pulses":[1],"damping":"off","topology":"mesh"}`,
		`{"rows":3,"cols":3,"pulses":[1],"damping":"ripe229"}`,
		`{"topology":"ring","nodes":6,"pulses":[1],"damping":"juniper"}`,
		`{"topology":"tiered","pulses":[0],"damping":"cisco","rcn":true}`,
	} {
		rec, _ := postSweep(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", body, rec.Code, rec.Body)
		}
		replies[body] = rec.Body.String()
	}
	plain := replies[`{"rows":3,"cols":3,"pulses":[1]}`]
	for _, same := range []string{
		`{"rows":3,"cols":3,"pulses":[1],"damping":"none"}`,
		`{"rows":3,"cols":3,"pulses":[1],"damping":"off","topology":"mesh"}`,
	} {
		if replies[same] != plain {
			t.Errorf("%s answers %s, the bare request %s", same, replies[same], plain)
		}
	}
	if hits, misses, _ := s.cache.Stats(); hits != 2 || misses != 4 {
		t.Errorf("run cache hits/misses = %d/%d, want 2/4: none, off and the default are one scenario", hits, misses)
	}
}

func TestSweepDeadline(t *testing.T) {
	s := testServer(t, serverConfig{})
	// A 40×40 torus: the sweep takes over 100 times the 1 ms deadline (its
	// warm-up alone some 40 ms), so the deadline trips mid-run and the
	// kernel's next context poll aborts it.
	rec, resp := postSweep(t, s.routes(),
		`{"rows":40,"cols":40,"damping":"cisco","pulses":[8,9,10],"timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504 for an exhausted deadline", rec.Code, rec.Body)
	}
	if !strings.Contains(resp.Error, "budget") {
		t.Fatalf("error %q does not name the budget", resp.Error)
	}
}

// TestAdmissionControl fills every run and queue slot by hand, then checks
// the next request bounces with 429 — deterministically, no racing sweeps.
func TestAdmissionControl(t *testing.T) {
	s := testServer(t, serverConfig{Concurrency: 1, Queue: 1})
	for i := 0; i < cap(s.queueSlots); i++ {
		s.queueSlots <- struct{}{}
	}
	rec, resp := postSweep(t, s.routes(), `{"rows":3,"cols":3,"pulses":[0]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 with a full queue", rec.Code)
	}
	if !strings.Contains(resp.Error, "queue full") {
		t.Fatalf("error %q does not name the full queue", resp.Error)
	}
	// Free the slots: the same request is now admitted.
	for i := 0; i < cap(s.queueSlots); i++ {
		<-s.queueSlots
	}
	rec, _ = postSweep(t, s.routes(), `{"rows":3,"cols":3,"pulses":[0]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after slots freed = %d, want 200", rec.Code)
	}
	if len(s.runSlots) != 0 || len(s.queueSlots) != 0 {
		t.Fatalf("slots leaked: run=%d queue=%d", len(s.runSlots), len(s.queueSlots))
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	// One sweep so the stats are non-trivial.
	if rec, _ := postSweep(t, h, `{"rows":3,"cols":3,"pulses":[0,1]}`); rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var hz healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.CacheMisses != 2 {
		t.Fatalf("healthz stats = %+v, want 2 misses", hz)
	}
	if hz.CacheEntries != 2 || hz.CacheBytes <= 0 || hz.CacheBytes > experiment.DefaultCacheBytes || hz.CacheEvictions != 0 {
		t.Fatalf("healthz cache residency = %d entries, %d bytes, %d evictions; want both points resident within the bound",
			hz.CacheEntries, hz.CacheBytes, hz.CacheEvictions)
	}
	if hz.Running != 0 || hz.Queued != 0 {
		t.Fatalf("healthz admission = running %d queued %d, want idle", hz.Running, hz.Queued)
	}
}

// TestSweepCachesNoSeries: a reply reads three scalars of each point, so the
// Results a sweep caches hold no series — three points of a damped 4×4 mesh
// take under 4 KiB between them.
func TestSweepCachesNoSeries(t *testing.T) {
	s := testServer(t, serverConfig{})
	if rec, _ := postSweep(t, s.routes(), `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1,2]}`); rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d", rec.Code)
	}
	if entries, bytes, _ := s.cache.Resident(); entries != 3 || bytes >= 4<<10 {
		t.Fatalf("run cache holds %d Results in %d bytes, want 3 in under 4 KiB", entries, bytes)
	}
}

// TestSnapshotPool pins the converged-snapshot pool end to end: a repeat
// request for the same scenario with fresh pulse counts forks the pooled
// warm-up instead of re-converging, and healthz surfaces the pool counters.
func TestSnapshotPool(t *testing.T) {
	s := testServer(t, serverConfig{Snapshots: 4})
	if s.pool == nil {
		t.Fatal("Snapshots > 0 did not wire a checkpoint pool")
	}
	h := s.routes()
	if rec, _ := postSweep(t, h, `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1]}`); rec.Code != http.StatusOK {
		t.Fatalf("first sweep status = %d", rec.Code)
	}
	if rec, _ := postSweep(t, h, `{"rows":4,"cols":4,"damping":"cisco","pulses":[2,3]}`); rec.Code != http.StatusOK {
		t.Fatalf("second sweep status = %d", rec.Code)
	}
	hits, misses, _ := s.pool.Stats()
	if misses != 1 || hits < 1 {
		t.Fatalf("pool stats hits=%d misses=%d, want one warm-up reused by the second sweep", hits, misses)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var hz healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.SnapshotCapacity != 4 || hz.SnapshotsPooled != 1 {
		t.Fatalf("healthz pool shape = capacity %d pooled %d, want 4/1", hz.SnapshotCapacity, hz.SnapshotsPooled)
	}
	if hz.SnapshotHits != hits || hz.SnapshotMisses != misses {
		t.Fatalf("healthz pool stats = %d/%d, pool reports %d/%d", hz.SnapshotHits, hz.SnapshotMisses, hits, misses)
	}
	// The first sweep parked its trunk at pulse 1, the second resumed it and
	// parked its own at pulse 3.
	if hz.FlightsParked != 1 || hz.FlightResumes != 1 {
		t.Fatalf("healthz flights = %d parked / %d resumes, want 1/1", hz.FlightsParked, hz.FlightResumes)
	}
}

// TestSnapshotPoolConcurrent races several sweeps sharing one warm-up through
// the full HTTP stack: singleflight population must converge exactly once.
// Under -race this doubles as the pool's integration race check.
func TestSnapshotPoolConcurrent(t *testing.T) {
	s := testServer(t, serverConfig{Snapshots: 4, Concurrency: 4, Queue: 8})
	h := s.routes()
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := `{"rows":4,"cols":4,"damping":"cisco","pulses":[` + strconv.Itoa(i) + `]}`
			req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("sweep %d status = %d", i, code)
		}
	}
	if hits, misses, _ := s.pool.Stats(); misses != 1 || hits != 3 {
		t.Fatalf("pool stats hits=%d misses=%d, want 3/1 (singleflight warm-up)", hits, misses)
	}
}

func TestFigureEndpoint(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	for _, name := range []string{"table1", "fig3"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/figure?name="+name, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", name, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
			t.Errorf("%s content type = %q", name, ct)
		}
		if !strings.Contains(rec.Body.String(), ",") {
			t.Errorf("%s body does not look like CSV: %q", name, rec.Body.String()[:40])
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/figure?name=fig99", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown figure status = %d, want 400", rec.Code)
	}
}

// TestFigureSmallIsABoolean: small=0 and small=false ask for paper scale (they
// used to get the reduced one, because only the parameter's presence was
// looked at), and a value that is no boolean is a 400 naming the parameter.
func TestFigureSmallIsABoolean(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	rows := func(query string) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/figure?name=fig8"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("fig8%s: status %d: %s", query, rec.Code, rec.Body)
		}
		return strings.Count(rec.Body.String(), "\n")
	}
	paper, small := rows(""), rows("&small=1")
	if small >= paper {
		t.Fatalf("small=1 has %d rows, paper scale %d", small, paper)
	}
	for _, q := range []string{"&small=0", "&small=false"} {
		if got := rows(q); got != paper {
			t.Errorf("fig8%s has %d rows, want the paper scale's %d", q, got, paper)
		}
	}
	if got := rows("&small=true"); got != small {
		t.Errorf("small=true has %d rows, small=1 has %d", got, small)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/figure?name=table1&small=maybe", nil))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "small") {
		t.Errorf("small=maybe: status %d, body %s; want 400 naming small", rec.Code, rec.Body)
	}
}

// TestGracefulDrain runs the real serve loop on a loopback port, starts a
// sweep, sends the shutdown signal mid-request, and checks (a) the in-flight
// request completes and (b) the serve loop exits cleanly.
func TestGracefulDrain(t *testing.T) {
	s := testServer(t, serverConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srvErr := make(chan error, 1)
	addr := "127.0.0.1:18473"
	go func() { srvErr <- run(ctx, addr, 30*time.Second, s) }()
	waitHealthy(t, addr)

	reqErr := make(chan error, 1)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/sweep", "application/json",
			strings.NewReader(`{"rows":5,"cols":5,"damping":"cisco","pulses":[0,1,2,3]}`))
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		status <- resp.StatusCode
		reqErr <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	cancel()                          // stands in for SIGTERM (same ctx path)

	select {
	case err := <-reqErr:
		if err != nil {
			t.Fatalf("in-flight request failed during drain: %v", err)
		}
		if code := <-status; code != http.StatusOK {
			t.Fatalf("in-flight request status = %d", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatalf("serve loop exited with %v, want clean drain", err)
		}
	case <-time.After(35 * time.Second):
		t.Fatal("serve loop did not exit after the drain")
	}
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}
