// Command ttmbench is the time-to-mosaic benchmark: per-tile TIFFs on
// disk in, a served pyramid out. For one workload it generates a seeded
// plate, then repeats the stitch CLI's `-solver ls -compose-out`
// sequence (DirSource → pipelined-cpu phase 1 → least-squares solve →
// out-of-core compose into a pyramid file) and a viewer phase that
// reads the pyramid through the tile server over loopback HTTP. Every
// layer is timed from outside, around calls into its public API.
//
// Build and run it from the repository root with
//
//	bash ttmbench/run.sh --workload mosaic --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced
// sessions; with --trace 1 it alternates untraced and traced sessions
// and reports the per-layer ledger. The last line of standard output is
// the JSON result; the line before it records the host and the inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybridstitch/internal/tiffio"
)

// setUpReps is how many times a run writes its plate; setup_s is the
// median.
const setUpReps = 5

// An untraced run makes at least minSessions measured sessions and
// minRequests tile requests, so p99 has ten samples beyond it; a traced
// run makes at least one untraced and one traced session.
const (
	minSessions = 3
	minRequests = 1000
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttmbench: ")
	var (
		name    = flag.String("workload", "", "workload: mosaic, wide-grid or serve")
		seed    = flag.Int64("seed", 1, "seed for the generated plate and viewer trace")
		seconds = flag.Int("seconds", 30, "how long to keep starting measured sessions")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer ledger")
		workdir = flag.String("workdir", ".bench_build", "directory for the generated plate and pyramid")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, not %d", *trace)
	}
	w, err := workloadByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		log.Fatal(err)
	}
	r, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range r.tally.failures {
		log.Printf("check failed: %s", f)
	}
	info, err := json.Marshal(r.info)
	if err != nil {
		log.Fatal(err)
	}
	res, err := json.Marshal(r.result())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(info))
	fmt.Println(string(res))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inputs records what a result was measured on and with.
type inputs struct {
	Host               hostRecord `json:"host"`
	Workload           string     `json:"workload"`
	Seed               int64      `json:"seed"`
	Seconds            float64    `json:"seconds"`
	Tracing            bool       `json:"tracing"`
	Plate              string     `json:"plate"`
	Tile               string     `json:"tile"`
	Overlap            float64    `json:"overlap"`
	ComposeBudget      int64      `json:"compose_budget_bytes"`
	CacheBudget        int64      `json:"cache_budget_bytes"`
	Clients            int        `json:"clients"`
	RequestsPerSession int        `json:"requests_per_session"`
	Sessions           int        `json:"sessions"`
	TracedSessions     int        `json:"traced_sessions"`
	TailPercentile     float64    `json:"tile_tail_percentile"`
	TailSamples        int        `json:"tile_latency_samples"`
	// DefaultOverlap is the plate shape stitched at imagegen's default
	// overlap: the workload's own plate, or a probe run after the
	// measured sessions whose failures are expected on the seed code.
	DefaultOverlap *positionsOutcome `json:"default_overlap"`
}

// runResult is one run's checks, metrics and record of inputs.
type runResult struct {
	tally   tally
	metrics map[string]metric
	info    inputs
}

func (r *runResult) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.tally.failed == 0, r.tally.attempted, r.tally.failed, r.metrics}
}

// run sets up the workload's plate, runs a warm-up session that fixes
// the reference output, then measured sessions until budget has passed,
// checking every output.
func run(w workload, seed int64, budget time.Duration, traced bool, dir string) (*runResult, error) {
	r := &runResult{metrics: map[string]metric{}}
	clients := runtime.NumCPU()
	r.info = inputs{
		Host: host(), Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Tracing: traced,
		Plate: fmt.Sprintf("%dx%d", w.rows, w.cols), Tile: fmt.Sprintf("%dx%d", w.tileW, w.tileH),
		Overlap: w.overlap, Clients: clients, RequestsPerSession: w.requests,
	}

	log.Printf("%s: writing the %s plate of %s tiles %d times", w.name, r.info.Plate, r.info.Tile, setUpReps)
	p, setUpTimes, err := setUp(w, seed, filepath.Join(dir, "plate"), setUpReps)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "pyramid.tif")
	warm, err := runSession(w, p, out, nil, false)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(p, warm)
	if err != nil {
		return nil, err
	}
	r.tally.check(warm, ref, p, out)
	if w.overlap == defaultOverlap {
		if r.info.DefaultOverlap, err = outcomeOf(warm, p); err != nil {
			return nil, err
		}
	}
	r.info.ComposeBudget = composeBudget(w, warm.pl)
	r.info.CacheBudget = cacheBudget(w, warm.pl)
	cw, ch := warm.pl.Bounds()
	traffic := newViewers(seed, tiffio.PyramidLevelDims(cw, ch, pyramidTileSide), clients)

	// Measured sessions, alternating untraced and traced ones in a traced
	// run, until a typical round no longer fits the budget. An untraced
	// run makes at least minSessions sessions and minRequests requests.
	// Checked sessions keep only their figures, except the last traced
	// one, whose result and obs snapshot the ledger reads.
	var plain, withTrace []*session
	var served []tileAddr // distinct addresses, for the ledger
	start := time.Now()
	for {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			reqs := traffic.next(w.requests)
			if traced {
				served = distinctAddrs(append([][]tileAddr{served}, reqs...))
			}
			s, err := runSession(w, p, out, reqs, tr)
			if err != nil {
				return nil, err
			}
			r.tally.check(s, ref, p, out)
			log.Printf("%s: session traced=%v: positions %.3f s, mosaic %.3f s, %d tiles at %.1f/s",
				w.name, tr, s.positions, s.mosaic, s.view.requests, float64(s.view.requests)/s.view.wall)
			if tr {
				if n := len(withTrace); n > 0 {
					withTrace[n-1].trim()
				}
				withTrace = append(withTrace, s)
			} else {
				s.trim()
				plain = append(plain, s)
			}
		}
		if traced || len(plain) >= minSessions && len(plain)*w.requests >= minRequests {
			round := time.Since(start) / time.Duration(len(plain))
			if time.Since(start)+round > budget {
				break
			}
		}
	}
	r.info.Sessions, r.info.TracedSessions = len(plain), len(withTrace)
	log.Printf("%s: %d untraced and %d traced sessions in %v",
		w.name, len(plain), len(withTrace), time.Since(start).Round(time.Millisecond))

	if r.info.DefaultOverlap == nil {
		if r.info.DefaultOverlap, err = defaultOverlapProbe(w, seed, dir); err != nil {
			return nil, err
		}
	}
	for _, f := range r.info.DefaultOverlap.Failures {
		log.Printf("expected failure at %g overlap: %s", defaultOverlap, f)
	}

	if traced {
		err = r.layerMetrics(p, out, served, plain, withTrace)
	} else {
		err = r.endToEndMetrics(setUpTimes, plain)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return r, nil
}

func (r *runResult) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// med is the median of f over sessions.
func med(ss []*session, f func(*session) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEndMetrics are what a user of the system sees, from untraced
// sessions.
func (r *runResult) endToEndMetrics(setUpTimes []float64, ss []*session) error {
	var lat []float64
	var requests int
	var wall float64
	for _, s := range ss {
		lat = append(lat, s.view.latMS...)
		requests += s.view.requests
		wall += s.view.wall
	}
	pct, _, n := tailQuantile(lat)
	r.info.TailPercentile, r.info.TailSamples = pct, n
	if pct < 99 {
		return fmt.Errorf("%d tile requests leave fewer than 10 beyond p99", n)
	}
	r.put("setup_s", "s", median(setUpTimes))
	r.put("time_to_positions_s", "s", med(ss, func(s *session) float64 { return s.positions }))
	r.put("time_to_mosaic_s", "s", med(ss, func(s *session) float64 { return s.mosaic }))
	r.put("pyramid_mb", "MB", med(ss, func(s *session) float64 { return float64(s.pyramidBytes) / 1e6 }))
	r.put("peak_rss_mb", "MB", med(ss, func(s *session) float64 { return s.peakRSSMB }))
	r.put("tile_p50_ms", "ms", quantile(lat, 0.50))
	r.put("tile_p99_ms", "ms", quantile(lat, 0.99))
	r.put("tiles_per_s", "1/s", float64(requests)/wall)
	return nil
}
