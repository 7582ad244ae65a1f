package main

import (
	"fmt"
	"time"
)

// streamSessions is how many extra sessions the traced run replays through
// /v1/sweep/stream to see inside a request from outside the daemon.
const streamSessions = 8

// traceRfdd is rfdd-mix's own part of the traced run. rfdd is observed only
// from outside, so the class latencies and /healthz counters come from the
// same closed-loop mix as the untraced run; a further slice of the schedule
// goes through the streaming endpoint, whose NDJSON events are timestamped on
// arrival; and the in-process cost of what a cache-warm request does inside
// experiment is subtracted from its latency to leave HTTP + JSON.
func traceRfdd(e *env, tr *tracer, lm layerMetrics, checks *e2eRun) error {
	clients := e.par
	nSessions := e.scale.ops[wRfddMix]
	sessions := makeSessions(e.seed, e.scale, 0, nSessions)
	extra := makeSessions(e.seed, e.scale, nSessions, numKinds+streamSessions)
	warm, streamed := extra[:numKinds], extra[numKinds:]
	httpc := newMixClient(clients)
	defer httpc.CloseIdleConnections()

	d, err := startWarmDaemon(e, httpc, warm)
	if err != nil {
		return err
	}
	defer d.stop()

	before, err := d.healthz(httpc)
	if err != nil {
		return err
	}
	id := tr.begin("rfdd-mix.closed_loop", -1)
	m, logs, _ := runClients(httpc, d.url+"/v1/sweep", sessions, clients)
	tr.end(id)
	m.before = before
	if m.after, err = d.healthz(httpc); err != nil {
		return err
	}
	requests := 0
	for i := range logs {
		requests += logs[i].requests
		checks.attempted += logs[i].requests
		for _, f := range logs[i].failures {
			checks.fail("%s", f)
		}
	}
	for _, msg := range checkHealthz(m) {
		checks.fail("%s", msg)
	}
	fmt.Fprint(e.log, describeClasses(m))
	lm["cold_s_p50"] = m.classP50(classCold)
	lm["snapwarm_s_p50"] = m.classP50(classSnapWarm)
	lm["cachewarm_s_p50"] = m.classP50(classCacheWarm)
	lm["cachewarm_s_p99"] = percentile(m.class(classCacheWarm), 99)
	if n := len(m.class(classCacheWarm)); n < 1000 {
		fmt.Fprintf(e.log, "  cachewarm_s_p99 rests on %d samples, fewer than ten beyond it\n", n)
	}
	lm["rfdd.resp_bytes"] = float64(m.respBytes) / float64(max(requests, 1))
	lm["rfdd.cache_hits"] = float64(m.after.CacheHits - before.CacheHits)
	lm["rfdd.cache_misses"] = float64(m.after.CacheMisses - before.CacheMisses)
	lm["rfdd.snapshot_hits"] = float64(m.after.SnapshotHits - before.SnapshotHits)
	lm["rfdd.snapshot_misses"] = float64(m.after.SnapshotMisses - before.SnapshotMisses)
	lm["rfdd.snapshot_evictions"] = float64(m.after.SnapshotEvictions - before.SnapshotEvictions)
	lm["rfdd.rejected_429"] = float64(m.rejected)

	// The streamed slice, one client: cold sweeps show the warm-up, every
	// live sweep its per-point time and the tail after the last point.
	var warmups, points, tails []float64
	for si := range streamed {
		s := &streamed[si]
		for b := range s.bodies {
			t0 := time.Now()
			st, err := postStream(httpc, d.url+"/v1/sweep/stream", s.bodies[b])
			checks.attempted++
			if err != nil {
				checks.fail("streamed session %d body %d: %v", si, b, err)
				continue
			}
			if st.points != len(sessionPulses[b]) {
				checks.fail("streamed session %d body %d: %d point events for %d pulse counts", si, b, st.points, len(sessionPulses[b]))
				continue
			}
			root := tr.add("rfdd.request/"+classNames[min(b, classSnapWarm)], -1, t0, 0, st.eof)
			simStart := time.Duration(0) // no warm-up: the first point's run starts with the request
			if st.warmupDone > 0 {
				tr.add("rfdd.warmup", root, t0, 0, st.warmupDone)
				warmups = append(warmups, st.warmupDone.Seconds())
				simStart = st.warmupDone
			}
			tr.add("rfdd.points", root, t0, simStart, st.lastPoint)
			tr.add("rfdd.encode_tail", root, t0, st.lastPoint, st.eof)
			points = append(points, (st.lastPoint-simStart).Seconds()/float64(st.points))
			tails = append(tails, (st.eof - st.lastPoint).Seconds())
		}
	}
	// A phase no streamed request showed stays unmeasured, which fails the run.
	for name, xs := range map[string][]float64{"rfdd.warmup_ms": warmups, "rfdd.point_ms": points, "rfdd.encode_tail_ms": tails} {
		if len(xs) > 0 {
			lm[name] = median(xs) * 1e3
		}
	}

	// What a cache-warm request does inside experiment, per topology kind.
	var build, fingerprint, cacheHit, poolHit, run0 float64
	for kind := 0; kind < numKinds; kind++ {
		s := &warm[kind]
		b, err := medianOf(9, func() error {
			_, err := mixScenario(e.scale, s)
			return err
		})
		if err != nil {
			return err
		}
		sc, err := mixScenario(e.scale, s)
		if err != nil {
			return err
		}
		costs, err := requestCosts(sc)
		if err != nil {
			return err
		}
		build += b / numKinds
		fingerprint += costs.fingerprint / numKinds
		cacheHit += costs.cacheHit / numKinds
		poolHit += costs.poolHit / numKinds
		run0 += costs.run0 / numKinds
	}
	// The cache hit includes its fingerprint.
	lm["rfdd.http_overhead_us"] = (lm["cachewarm_s_p50"] - build - cacheHit) * 1e6
	// Rows of the per-request budget that are not metrics of their own (mean
	// of the mesh and internet sessions, like the class medians).
	lm[reqGraphBuild] = build * 1e6
	lm[reqFingerprint] = fingerprint * 1e6
	lm[reqCacheHit] = cacheHit * 1e6
	lm[reqPoolHit] = poolHit * 1e6
	lm[reqForkRun0] = run0 * 1e6
	return nil
}
