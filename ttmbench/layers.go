package main

import (
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/pciam"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
	"hybridstitch/internal/tileserve"
)

// Isolated per-call measurements of single layers, made after the
// traced sessions: each repeats one public call on real inputs and
// reports a per-call time.

// Each isolated measurement makes at least minCalls calls over at least
// minTime, whichever takes longer.
const (
	minCalls = 20
	minTime  = 300 * time.Millisecond
)

// perCallMS times fn until both minimums are met and returns the median
// per-call time in milliseconds. fn receives the call index.
func perCallMS(fn func(i int) error) (float64, error) {
	var ms []float64
	start := time.Now()
	for i := 0; i < minCalls || time.Since(start) < minTime; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// alignerLayers measures one-thread forward transforms per tile and
// displacements per west pair along the plate's first row (at most
// eight tiles), through the real-to-complex aligner phase 1 uses.
func alignerLayers(p *plate) (forwardMS, displaceMS float64, err error) {
	g := p.grid
	src := &stitch.DirSource{Dir: p.dir, GridSpec: g}
	n := min(g.Cols, 8)
	tiles := make([]*tile.Gray16, n)
	for c := range tiles {
		if tiles[c], err = src.ReadTile(tile.Coord{Row: 0, Col: c}); err != nil {
			return 0, 0, err
		}
	}
	al, err := pciam.NewRealAligner(g.TileW, g.TileH, pciam.Options{
		FFTExec: fft.ExecSerial, Planner: fft.NewPlanner(fft.Measure),
	})
	if err != nil {
		return 0, 0, err
	}
	defer al.Close()
	spectra := make([][]complex128, n)
	for c, t := range tiles {
		if spectra[c], err = al.Transform(t); err != nil {
			return 0, 0, err
		}
	}
	forwardMS, err = perCallMS(func(i int) error {
		_, err := al.Transform(tiles[i%n])
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	displaceMS, err = perCallMS(func(i int) error {
		b := 1 + i%(n-1)
		_, err := al.Displace(tiles[b-1], tiles[b], spectra[b-1], spectra[b])
		return err
	})
	return forwardMS, displaceMS, err
}

// pyramidEncodeS replays the pyramid levels of level 0 of the pyramid
// file at path through a PyramidWriter into a discard sink: tile
// packing and deflate without compose or the file system.
func pyramidEncodeS(path string) (float64, error) {
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return 0, err
	}
	img, err := pf.Image(0)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	levels := compose.Pyramid(img, pyramidTileSide)
	t0 := time.Now()
	pw, err := tiffio.NewPyramidWriter(discardSeeker{}, img.W, img.H, tiffio.PyramidOpts{})
	if err != nil {
		return 0, err
	}
	for l, lv := range levels {
		if err := pw.WriteRows(l, lv.Pix, lv.H); err != nil {
			return 0, err
		}
	}
	if err := pw.Close(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// distinctAddrs lists the requested tile addresses once each, in first
// request order.
func distinctAddrs(trace [][]tileAddr) []tileAddr {
	seen := map[[3]int]bool{}
	var out []tileAddr
	for _, seq := range trace {
		for _, a := range seq {
			k := [3]int{a.level, a.tx, a.ty}
			if !seen[k] {
				seen[k] = true
				out = append(out, tileAddr{level: a.level, tx: a.tx, ty: a.ty})
			}
		}
	}
	return out
}

// readLayers measures, over addrs in the pyramid at path,
// Pyramid.ReadTileAt (read plus inflate) and tileserve's Server.Tile on
// a cold cache and then on a warm one. Each figure is a mean per call in
// milliseconds.
func readLayers(path string, addrs []tileAddr) (inflateMS, missMS, hitMS float64, err error) {
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer pf.Close()
	meanMS := func(fn func(a tileAddr) error) (float64, error) {
		t0 := time.Now()
		for _, a := range addrs {
			if err := fn(a); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / 1e6 / float64(len(addrs)), nil
	}
	if inflateMS, err = meanMS(func(a tileAddr) error {
		_, err := pf.ReadTileAt(a.level, a.tx, a.ty)
		return err
	}); err != nil {
		return 0, 0, 0, err
	}
	// A cache that holds every tile, so the second pass only hits.
	srv := tileserve.New(pf.Pyramid, tileserve.Options{CacheBytes: 1 << 40})
	fetch := func(a tileAddr) error {
		_, err := srv.Tile(a.level, a.tx, a.ty)
		return err
	}
	if missMS, err = meanMS(fetch); err != nil {
		return 0, 0, 0, err
	}
	hitMS, err = meanMS(fetch)
	return inflateMS, missMS, hitMS, err
}
