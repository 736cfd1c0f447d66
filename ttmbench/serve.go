package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"hybridstitch/internal/global"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tileserve"
)

// tileAddr is one deep-zoom tile request. check marks the seeded sample
// whose decoded pixels are compared against the pyramid.
type tileAddr struct {
	level, tx, ty int
	check         bool
}

// pyramidTileSide is compose.ComposeSharded's default pyramid tile side,
// which is also its default MinSide for ending the level chain.
const pyramidTileSide = 256

// Viewer model. The repository documents no recorded viewer traffic;
// its tile-server load generators (BenchmarkTileServe and the `serve`
// experiment) send every fourth request to the coarsest level's
// overview tile, "what every viewer session fetches first", and the
// rest to uniformly random level-0 tiles. The harness groups that mix
// into viewer sessions: each starts at the overview tile, then zooms
// into sessionLen-1 random level-0 tiles. This is the repository's
// own load model, not traffic measured from users. About one request
// in checkEvery is a pixel-checked sample.
const (
	sessionLen = 4
	checkEvery = 16
)

// viewers generates the viewer traffic: each client replays seeded
// viewer sessions one after another. Generators built from the same
// arguments yield the same requests.
type viewers struct {
	rng  *rand.Rand
	dims [][2]int
	left []int // requests left in each client's viewer session
}

func newViewers(seed int64, dims [][2]int, clients int) *viewers {
	return &viewers{rng: rand.New(rand.NewSource(seed)), dims: dims, left: make([]int, clients)}
}

// next returns the clients' next requests, n in all (rounded up to a
// multiple of the client count), one sequence per client.
func (v *viewers) next(n int) [][]tileAddr {
	per := (n + len(v.left) - 1) / len(v.left)
	d := v.dims[0]
	across := (d[0] + pyramidTileSide - 1) / pyramidTileSide
	down := (d[1] + pyramidTileSide - 1) / pyramidTileSide
	out := make([][]tileAddr, len(v.left))
	for c := range out {
		for i := 0; i < per; i++ {
			var a tileAddr
			if v.left[c] == 0 {
				a, v.left[c] = tileAddr{level: len(v.dims) - 1}, sessionLen
			} else {
				a = tileAddr{tx: v.rng.Intn(across), ty: v.rng.Intn(down)}
			}
			v.left[c]--
			a.check = v.rng.Intn(checkEvery) == 0
			out[c] = append(out[c], a)
		}
	}
	return out
}

// cacheBudget is the tile server's decoded-tile cache for the session:
// 0 (the server default) unless the workload sizes it from level 0.
func cacheBudget(w workload, pl *global.Placement) int64 {
	if w.cacheDiv <= 0 {
		return 0
	}
	cw, ch := pl.Bounds()
	return int64(2*cw*ch) / int64(w.cacheDiv)
}

// reply is the client's view of one request.
type reply struct {
	addr   tileAddr
	lat    time.Duration
	status int
	ctype  string
	w, h   int    // dimensions from the PNG header
	size   int    // response body bytes
	body   []byte // kept only for checked samples
	err    error
}

// serveRun is the outcome of one serve phase.
type serveRun struct {
	latMS     []float64
	respBytes int64
	wall      float64 // seconds from the first request sent to the last answered
	requests  int
	failures  []string
	hits      int64
	misses    int64
	evictions int64
	handlerMS float64 // mean server-side handler time, traced sessions only
}

// serve opens the pyramid at path, serves it over loopback HTTP and
// replays trace with one closed-loop client per sequence, each on its
// own keep-alive connection. Responses are checked after the clock
// stops.
func serve(path string, cacheBytes int64, trace [][]tileAddr, rec *obs.Recorder) (*serveRun, error) {
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	srv := tileserve.New(pf.Pyramid, tileserve.Options{CacheBytes: cacheBytes, Rec: rec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	replies := make([][]reply, len(trace))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range trace {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			replies[c] = replay(base, trace[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}

	run := &serveRun{wall: wall.Seconds()}
	run.hits, run.misses, run.evictions, _ = srv.CacheStats()
	if rec != nil {
		n, sum, _, _ := rec.Histogram(obs.HistServeTileSeconds).Stats()
		if n > 0 {
			run.handlerMS = 1e3 * sum / float64(n)
		}
	}
	for _, rs := range replies {
		for _, r := range rs {
			run.requests++
			run.latMS = append(run.latMS, float64(r.lat)/1e6)
			run.respBytes += int64(r.size)
			if msg := checkReply(pf.Pyramid, r); msg != "" {
				run.failures = append(run.failures, msg)
			}
		}
	}
	return run, nil
}

// replay sends the client's requests one after another on a single
// keep-alive connection.
func replay(base string, addrs []tileAddr) []reply {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	out := make([]reply, len(addrs))
	for i, a := range addrs {
		r := &out[i]
		r.addr = a
		t0 := time.Now()
		resp, err := client.Get(fmt.Sprintf("%s/tile/%d/%d/%d", base, a.level, a.tx, a.ty))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			r.status, r.ctype = resp.StatusCode, resp.Header.Get("Content-Type")
		}
		r.lat = time.Since(t0)
		r.err = err
		r.size = len(body)
		r.w, r.h = pngDims(body)
		if a.check {
			r.body = body
		}
	}
	return out
}

// pngDims reads the width and height from a PNG's IHDR chunk, or
// returns -1, -1 when body does not start like a PNG.
func pngDims(body []byte) (w, h int) {
	if len(body) < 24 || !bytes.Equal(body[:8], []byte("\x89PNG\r\n\x1a\n")) || string(body[12:16]) != "IHDR" {
		return -1, -1
	}
	return int(binary.BigEndian.Uint32(body[16:20])), int(binary.BigEndian.Uint32(body[20:24]))
}

// checkReply returns "" for a 200 PNG of the tile's clipped dimensions
// (and, for a checked sample, the tile's exact pixels), else what was
// wrong.
func checkReply(pyr *tiffio.Pyramid, r reply) string {
	a := r.addr
	where := fmt.Sprintf("tile %d/%d/%d", a.level, a.tx, a.ty)
	if r.err != nil {
		return fmt.Sprintf("%s: %v", where, r.err)
	}
	if r.status != http.StatusOK || r.ctype != "image/png" {
		return fmt.Sprintf("%s: status %d, content type %q", where, r.status, r.ctype)
	}
	lv := pyr.Level(a.level)
	w, h := min(lv.TileW, lv.W-a.tx*lv.TileW), min(lv.TileH, lv.H-a.ty*lv.TileH)
	if r.w != w || r.h != h {
		return fmt.Sprintf("%s: PNG is %dx%d, want %dx%d", where, r.w, r.h, w, h)
	}
	if !a.check {
		return ""
	}
	img, err := png.Decode(bytes.NewReader(r.body))
	if err != nil {
		return fmt.Sprintf("%s: %v", where, err)
	}
	got, ok := img.(*image.Gray16)
	if !ok {
		return fmt.Sprintf("%s: PNG decodes to %T, want 16-bit gray", where, img)
	}
	want, err := pyr.ReadTileAt(a.level, a.tx, a.ty)
	if err != nil {
		return fmt.Sprintf("%s: %v", where, err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got.Gray16At(x, y).Y != want.At(x, y) {
				return fmt.Sprintf("%s: pixel (%d,%d) is %d, pyramid has %d", where, x, y, got.Gray16At(x, y).Y, want.At(x, y))
			}
		}
	}
	return ""
}
