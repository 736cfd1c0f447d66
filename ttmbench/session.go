package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
)

// session is one pass of the user's path over a plate on disk, timed
// from outside every layer it calls.
type session struct {
	res *stitch.Result
	pl  *global.Placement

	// Wall times in seconds. positions runs from the call into phase 1
	// to the placement returned; mosaic on to the pyramid file closed.
	phase1, solve, phase3 float64
	positions, mosaic     float64

	p1, p3 *timedSource
	write  *timedWriteSeeker

	govPeak, govFaults int64
	pyramidBytes       int64
	// peakRSSMB is the resident-set high-water mark from the call into
	// phase 1 to the end of the viewer phase.
	peakRSSMB float64
	// From the call into phase 1 to the pyramid closed: process CPU
	// seconds, bytes allocated and GC cycles.
	cpuS, allocMB, gcCycles float64

	// view is the session's viewer phase; nil when it served none.
	view *serveRun
	// snap holds the obs counters, gauges and histograms of a traced
	// session; nil for untraced ones. spanS sums the program's own root
	// spans of the three phases.
	snap  *obs.Snapshot
	spanS float64
}

// phaseSpans are the root spans phase 1, the least-squares solve and
// the out-of-core compose record.
var phaseSpans = map[string]bool{obs.SpanStitch: true, obs.SpanSolveLS: true, obs.SpanComposeSharded: true}

// composeBudget is the memory budget the session composes under.
func composeBudget(w workload, pl *global.Placement) int64 {
	if w.composeDiv <= 0 {
		return cliComposeBudget
	}
	cw, ch := pl.Bounds()
	return int64(2*cw*ch) / int64(w.composeDiv)
}

// stitchOptions are the stitch CLI's phase-1 options with
// -impl pipelined-cpu -threads nproc.
func stitchOptions(rec *obs.Recorder) (stitch.Options, error) {
	trav, err := stitch.TraversalByName("chained-diagonal")
	if err != nil {
		return stitch.Options{}, err
	}
	return stitch.Options{
		Threads: runtime.NumCPU(), Traversal: trav, NPeaks: 1,
		FFTVariant: stitch.VariantReal, MaxRetries: 2, RetryBackoff: 5 * time.Millisecond,
		Degrade: true, Planner: fft.NewPlanner(fft.Measure), Obs: rec,
	}, nil
}

// runSession drives the stitch CLI's `-solver ls -compose-out` sequence
// over p, writing the pyramid to out, then serves the pyramid to
// requests (skipped when nil). With traced set, every layer records into
// one obs.Recorder.
func runSession(w workload, p *plate, out string, requests [][]tileAddr, traced bool) (*session, error) {
	s := &session{}
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
		defer rec.Close()
	}
	opts, err := stitchOptions(rec)
	if err != nil {
		return nil, err
	}
	impl, err := stitch.ByName("pipelined-cpu")
	if err != nil {
		return nil, err
	}
	dir := &stitch.DirSource{Dir: p.dir, GridSpec: p.grid}
	s.p1 = &timedSource{inner: dir}
	s.p3 = &timedSource{inner: dir}

	// Return what earlier work left to the OS and restart the
	// resident-memory high-water mark, so the peak is this session's.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()

	t0 := time.Now()
	if s.res, err = impl.Run(s.p1, opts); err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	t1 := time.Now()
	s.pl, err = global.SolveLeastSquares(s.res, global.LSOptions{Pool: opts.TransformPool(), Obs: rec})
	if err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	t2 := time.Now()
	gov := memgov.New(composeBudget(w, s.pl), 0)
	if traced {
		gov.SetObs(rec)
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	s.write = &timedWriteSeeker{inner: f}
	err = compose.ComposeSharded(s.pl, stitch.MaskDegraded(s.p3, s.res), s.write,
		compose.ShardedOpts{Blend: compose.BlendOverlay, Gov: gov, Rec: rec})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("phase 3: %w", err)
	}
	t3 := time.Now()

	s.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	s.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	s.phase1, s.solve, s.phase3 = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	s.positions, s.mosaic = t2.Sub(t0).Seconds(), t3.Sub(t0).Seconds()
	_, s.govPeak, s.govFaults, _ = gov.Stats()
	fi, err := os.Stat(out)
	if err != nil {
		return nil, err
	}
	s.pyramidBytes = fi.Size()

	if requests != nil {
		if s.view, err = serve(out, cacheBudget(w, s.pl), requests, rec); err != nil {
			return nil, fmt.Errorf("viewer phase: %w", err)
		}
	}
	s.peakRSSMB = peakRSSMB()
	if traced {
		snap := rec.Snapshot()
		s.snap = &snap
		for _, sp := range rec.Spans() {
			if phaseSpans[sp.Name] && sp.Parent == 0 {
				s.spanS += sp.Duration().Seconds()
			}
		}
	}
	return s, nil
}

// trim drops the session's result, placement and obs snapshot once it
// has been checked, so that sessions kept for their figures do not grow
// the heap the next sessions are measured in.
func (s *session) trim() { s.res, s.pl, s.snap = nil, nil, nil }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
