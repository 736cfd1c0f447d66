package main

import (
	"fmt"

	"hybridstitch/internal/global"
	"hybridstitch/internal/obs"
)

// queueMetrics maps the pipelined-cpu queue names in Result.QueueStats
// to the ledger's metric names.
var queueMetrics = map[string]string{
	"read→work": "pipeline.q_read_work.max_depth",
	"work→bk":   "pipeline.q_work_bk.max_depth",
	"bk→work":   "pipeline.q_bk_work.max_depth",
}

// layerMetrics is the per-layer ledger. Times come from the traced
// sessions (median), counts from the last of them, go.* from the
// untraced sessions, and the tracing overhead from comparing the two.
// The isolated per-call layers are measured last.
func (r *runResult) layerMetrics(p *plate, out string, addrs []tileAddr, plain, traced []*session) error {
	last := traced[len(traced)-1]
	counter := func(name string) float64 { return float64(last.snap.Counters[name]) }
	histSum := func(name string) float64 { return last.snap.Histograms[name].Sum }
	m := func(f func(*session) float64) float64 { return med(traced, f) }

	// tiffio: decode through the Source wrapper, write through the
	// WriteSeeker wrapper, and the isolated encode and read paths.
	r.put("tiffio.decode_p1_s", "s", m(func(s *session) float64 { return s.p1.seconds() }))
	r.put("tiffio.decode_p1_calls", "count", float64(last.p1.calls.Load()))
	r.put("tiffio.decode_p3_s", "s", m(func(s *session) float64 { return s.p3.seconds() }))
	r.put("tiffio.decode_p3_calls", "count", float64(last.p3.calls.Load()))
	r.put("tiffio.decode_mb_per_s", "MB/s", m(func(s *session) float64 {
		return float64(s.p1.bytes.Load()+s.p3.bytes.Load()) / 1e6 / (s.p1.seconds() + s.p3.seconds())
	}))
	r.put("tiffio.write_s", "s", m(func(s *session) float64 { return s.write.nanos.Seconds() }))
	r.put("tiffio.write_mb", "MB", float64(last.write.bytes)/1e6)
	r.put("tiffio.write_calls", "count", float64(last.write.calls))
	encode, err := pyramidEncodeS(out)
	if err != nil {
		return fmt.Errorf("pyramid encode: %w", err)
	}
	r.put("tiffio.pyramid_encode_s", "s", encode)
	inflate, miss, hit, err := readLayers(out, addrs)
	if err != nil {
		return fmt.Errorf("pyramid read: %w", err)
	}
	r.put("tiffio.inflate_ms", "ms", inflate)

	// stitch and pipeline: phase 1 as a whole, its Result, and the
	// existing stitch.* histograms.
	r.put("stitch.phase1_s", "s", m(func(s *session) float64 { return s.phase1 }))
	r.put("stitch.transforms", "count", float64(last.res.TransformsComputed))
	r.put("stitch.peak_transforms_live", "count", float64(last.res.PeakTransformsLive))
	r.put("stitch.read_s", "s", histSum(obs.HistReadSeconds))
	r.put("stitch.fft_s", "s", histSum(obs.HistFFTSeconds))
	r.put("stitch.disp_s", "s", histSum(obs.HistDispSeconds))
	r.put("stitch.degraded", "count", float64(len(last.res.DegradedTiles)+len(last.res.DegradedPairs)))
	// pipelined-cpu runs one reader: the share of phase 1 it spent
	// outside ReadTile was spent waiting to hand tiles on.
	r.put("pipeline.reader_blocked_frac", "frac", m(func(s *session) float64 { return 1 - s.p1.seconds()/s.phase1 }))
	for _, q := range last.res.QueueStats {
		if name, ok := queueMetrics[q.Name]; ok {
			r.put(name, "count", float64(q.MaxDepth))
		}
	}

	// fft and pciam: isolated one-thread calls plus the existing
	// autotune and arena counters.
	forward, displace, err := alignerLayers(p)
	if err != nil {
		return fmt.Errorf("aligner: %w", err)
	}
	r.put("fft.forward_ms", "ms", forward)
	r.put("fft.autotune.split", "count", counter(obs.CounterFFTAutotuneSplit))
	r.put("fft.autotune.serial", "count", counter(obs.CounterFFTAutotuneSerial))
	r.put("fft.autotune.batched", "count", counter(obs.CounterFFTAutotuneBatched))
	r.put("fft.exec.batched", "count", counter(obs.CounterFFTBatchedExecs))
	r.put("pciam.displace_ms", "ms", displace)
	r.put("pciam.arena.reuse", "count", counter(obs.CounterArenaReuse))

	// global: the solve's wall time and its existing counters.
	rms, err := global.RMSError(last.pl, p.truthX, p.truthY)
	if err != nil {
		return err
	}
	r.put("global.solve_s", "s", m(func(s *session) float64 { return s.solve }))
	r.put("global.ls.rounds", "count", counter(obs.CounterLSRounds))
	r.put("global.ls.cg.iterations", "count", counter(obs.CounterLSItersCG))
	r.put("global.ls.gs.sweeps", "count", counter(obs.CounterLSSweepsGS))
	r.put("global.ls.residual_px", "px", last.snap.Gauges[obs.GaugeLSResidualPx].Last)
	r.put("global.edges.dropped", "count", float64(last.pl.Dropped))
	r.put("placement_rms_px", "px", rms)
	r.put("default_overlap.placement_rms_px", "px", r.info.DefaultOverlap.PlacementRMSPx)
	r.put("default_overlap.failed_checks", "count", float64(r.info.DefaultOverlap.Failed))

	// compose and memgov: self time is what ComposeSharded spent outside
	// tile decode and file writes.
	r.put("compose.phase3_s", "s", m(func(s *session) float64 { return s.phase3 }))
	r.put("compose.self_s", "s", m(func(s *session) float64 {
		return s.phase3 - s.p3.seconds() - s.write.nanos.Seconds()
	}))
	r.put("compose.bands", "count", counter(obs.CounterComposeBands))
	r.put("compose.band_tiles", "count", counter(obs.CounterComposeBandTiles))
	r.put("memgov.peak_mb", "MB", float64(last.govPeak)/1e6)
	r.put("memgov.faults", "count", float64(last.govFaults))

	// tileserve: cache behaviour and handler time of the traced viewer
	// phases, plus isolated fetches.
	var hits, misses, evictions, respBytes, requests int64
	for _, s := range traced {
		hits, misses, evictions = hits+s.view.hits, misses+s.view.misses, evictions+s.view.evictions
		respBytes, requests = respBytes+s.view.respBytes, requests+int64(s.view.requests)
	}
	r.put("tileserve.hit_ratio", "frac", float64(hits)/float64(hits+misses))
	r.put("tileserve.evictions", "count", float64(evictions))
	r.put("tileserve.handler_ms", "ms", m(func(s *session) float64 { return s.view.handlerMS }))
	r.put("tileserve.fetch_miss_ms", "ms", miss)
	r.put("tileserve.fetch_hit_ms", "ms", hit)
	r.put("tileserve.resp_kb", "KB", float64(respBytes)/1e3/float64(requests))

	// Go runtime over the timed region of untraced sessions, and what
	// tracing costs on top.
	r.put("go.cpu_s", "s", med(plain, func(s *session) float64 { return s.cpuS }))
	r.put("go.alloc_mb", "MB", med(plain, func(s *session) float64 { return s.allocMB }))
	r.put("go.gc_cycles", "count", med(plain, func(s *session) float64 { return s.gcCycles }))
	untracedMosaic := med(plain, func(s *session) float64 { return s.mosaic })
	r.put("obs.tracing_overhead_frac", "frac", m(func(s *session) float64 { return s.mosaic })/untracedMosaic-1)
	// The share of time to mosaic that the program's own phase spans do
	// not cover.
	r.put("ledger.unaccounted_frac", "frac", m(func(s *session) float64 { return 1 - s.spanS/s.mosaic }))
	return nil
}
