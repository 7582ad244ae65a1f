package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rfd/experiment"
)

// TestSweepTopologyBounds: oversized or negative topology requests are
// rejected with 400 before any allocation. Pre-fix, a single
// {"rows":100000,"cols":100000} request would try to build a 10^10-router
// mesh and OOM the daemon straight past admission control.
func TestSweepTopologyBounds(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"huge mesh", `{"rows":100000,"cols":100000}`, "router limit"},
		{"huge side", `{"rows":70000,"cols":1}`, "router limit"},
		{"huge product", `{"rows":1000,"cols":1000}`, "router limit"},
		{"huge nodes", `{"nodes":10000000}`, "router limit"},
		{"huge internet", `{"topology":"internet","nodes":10000000}`, "router limit"},
		{"huge unread side", `{"topology":"ring","nodes":6,"rows":70000}`, "router limit"},
		{"dense fullmesh", `{"topology":"fullmesh","nodes":65536}`, "link limit"},
		{"dense waxman", `{"topology":"waxman","nodes":65536}`, "link limit"},
		{"dense fullmesh, just over", `{"topology":"fullmesh","nodes":513}`, "link limit"},
		{"negative rows", `{"rows":-1}`, "negative topology size"},
		{"negative nodes", `{"nodes":-5}`, "negative topology size"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(tc.body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, rec.Code, rec.Body)
			continue
		}
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: bad error body %q", tc.name, rec.Body)
		}
		if !strings.Contains(resp.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, resp.Error, tc.wantErr)
		}
	}
	if hits, misses, size := s.graphs.stats(); hits+misses != 0 || size != 0 {
		t.Errorf("out-of-bounds requests touched the graph memo: %d hits, %d misses, %d kept", hits, misses, size)
	}
	// The largest dense shape under the link limit is materialized.
	if sc, _, err := (experiment.Spec{Topology: "fullmesh", Nodes: 512}).Scenario(experiment.SmallOptions(), s.graphs.get); err != nil || sc.Graph.NumEdges() != 512*511/2 {
		t.Errorf("512-router full mesh: %v, %v", sc.Graph, err)
	}
	// A sane large-but-bounded request still passes validation (it fails or
	// succeeds on its merits, not with a 400).
	rec, _ := postSweep(t, h, `{"rows":8,"cols":8,"pulses":[0],"timeout_ms":60000}`)
	if rec.Code == http.StatusBadRequest {
		t.Fatalf("in-bounds mesh rejected: %s", rec.Body)
	}
}

// TestSweepFlapIntervalValidation: non-finite, negative, and
// overflow-large flap intervals are 400s naming the field. The negative case
// is the pre-fix regression: it was silently ignored (the sweep ran with the
// default interval and answered 200), masking a client bug. The 1e10 case
// would overflow the nanosecond conversion into a negative time.Duration.
func TestSweepFlapIntervalValidation(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	for _, tc := range []struct {
		name, body string
	}{
		{"negative", `{"rows":3,"cols":3,"pulses":[0],"flap_interval_s":-5}`},
		{"duration overflow", `{"rows":3,"cols":3,"pulses":[0],"flap_interval_s":1e10}`},
		{"absurdly large", `{"rows":3,"cols":3,"pulses":[0],"flap_interval_s":1e300}`},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(tc.body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, rec.Code, rec.Body)
			continue
		}
		var resp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: bad error body %q", tc.name, rec.Body)
		}
		if !strings.Contains(resp.Error, "flap_interval_s") {
			t.Errorf("%s: error %q does not name flap_interval_s", tc.name, resp.Error)
		}
	}
	// An in-range interval still works.
	rec, resp := postSweep(t, h, `{"rows":3,"cols":3,"pulses":[0],"flap_interval_s":120}`)
	if rec.Code != http.StatusOK || resp.Error != "" {
		t.Fatalf("valid interval: status = %d error %q", rec.Code, resp.Error)
	}
}

// TestSweepStrictDecoding: a body the decoder would only partly understand
// is a 400 naming what was wrong, on both sweep endpoints, and reaches neither
// the graph memo nor the run cache. Pre-fix a misspelt field ({"pulse":[9]})
// or bytes after the object were dropped silently and the request answered
// 200 with the default 0..4 sweep.
func TestSweepStrictDecoding(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"misspelt field", `{"pulse":[9]}`, `unknown field "pulse"`},
		{"unknown field among known ones", `{"rows":3,"cols":3,"dampening":"cisco","pulses":[0]}`, `unknown field "dampening"`},
		{"second object", `{"rows":3,"cols":3,"pulses":[0]}{"pulses":[1]}`, "trailing data"},
		{"trailing garbage", `{"rows":3,"cols":3,"pulses":[0]} x`, "trailing data"},
		{"stray closing brace", `{"rows":3,"cols":3,"pulses":[0]}}`, "trailing data"},
	} {
		for _, path := range []string{"/v1/sweep", "/v1/sweep/stream"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s on %s: status = %d (%s), want 400", tc.name, path, rec.Code, rec.Body)
				continue
			}
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: bad error body %q", tc.name, rec.Body)
			}
			if !strings.Contains(resp.Error, tc.wantErr) {
				t.Errorf("%s on %s: error %q does not mention %q", tc.name, path, resp.Error, tc.wantErr)
			}
		}
	}
	if hits, misses, size := s.graphs.stats(); hits+misses != 0 || size != 0 {
		t.Errorf("refused requests touched the graph memo: %d hits, %d misses, %d kept", hits, misses, size)
	}
	if hits, misses, _ := s.cache.Stats(); hits+misses != 0 {
		t.Errorf("refused requests touched the run cache: %d hits, %d misses", hits, misses)
	}
	// Trailing whitespace is not data.
	if rec, _ := postSweep(t, h, `{"rows":3,"cols":3,"pulses":[0]}`+" \n\t"); rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace rejected: %d %s", rec.Code, rec.Body)
	}
}

// TestFigureTimeout: /v1/figure honors timeout_ms. Pre-fix the parameter was
// silently ignored (requestContext(r, 0)) and a figure request could only be
// bounded by the server-wide -timeout.
func TestFigureTimeout(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	req := httptest.NewRequest(http.MethodGet, "/v1/figure?name=fig8&small=1&timeout_ms=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504 for a 1 ms budget", rec.Code, rec.Body)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "budget") {
		t.Fatalf("error %q does not name the budget", resp.Error)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/figure?name=fig8&small=1&timeout_ms=abc", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms status = %d, want 400", rec.Code)
	}
}

// TestTimeoutBeyondCap: a timeout_ms past the largest time.Duration leaves
// the server's cap in place, on both endpoints that read it. Pre-fix the
// millisecond conversion wrapped negative and the request failed at once with
// 504 "run budget exceeded".
func TestTimeoutBeyondCap(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	const huge = "10000000000000" // ms; ×1e6 ns overflows int64
	rec, resp := postSweep(t, h, `{"rows":4,"cols":3,"pulses":[0],"timeout_ms":`+huge+`}`)
	if rec.Code != http.StatusOK || resp.Error != "" {
		t.Errorf("sweep: status = %d error %q, want 200 under the server's cap", rec.Code, resp.Error)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/figure?name=fig8&small=1&timeout_ms="+huge, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("figure: status = %d (%s), want 200 under the server's cap", rec.Code, rec.Body)
	}
}

// TestHealthzQueuedClamp: running and queued come from two unsynchronized
// channel reads, so a request observed in runSlots but already released from
// queueSlots would pre-fix report a negative queue depth. Model that skew
// directly and check the clamp.
func TestHealthzQueuedClamp(t *testing.T) {
	s := testServer(t, serverConfig{Concurrency: 2, Queue: 4})
	// running=1, queued-channel=0: len(queueSlots)-running = -1 unclamped.
	s.runSlots <- struct{}{}
	defer func() { <-s.runSlots }()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	var hz healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Running != 1 {
		t.Fatalf("running = %d, want 1", hz.Running)
	}
	if hz.Queued != 0 {
		t.Fatalf("queued = %d, want clamped to 0", hz.Queued)
	}
}
