package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// smallMosaic is the mosaic workload's tile shape and budget on a 3×3
// plate, small enough for unit tests.
var smallMosaic = workload{name: "small", rows: 3, cols: 3, tileW: 696, tileH: 520, overlap: 0.2, composeDiv: 3}

func testPlate(t *testing.T, w workload) *plate {
	t.Helper()
	p, err := writePlate(w, 5, filepath.Join(t.TempDir(), "plate"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTimedSourcePassesThrough(t *testing.T) {
	p := testPlate(t, workload{rows: 2, cols: 3, tileW: 64, tileH: 48, overlap: 0.2})
	dir := &stitch.DirSource{Dir: p.dir, GridSpec: p.grid}
	ts := &timedSource{inner: dir}
	var bytes int64
	for i := 0; i < p.grid.NumTiles(); i++ {
		c := p.grid.CoordOf(i)
		got, err := ts.ReadTile(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dir.ReadTile(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != want.W || got.H != want.H || !slices.Equal(got.Pix, want.Pix) {
			t.Fatalf("tile %v differs through the wrapper", c)
		}
		bytes += int64(want.Bytes())
	}
	if _, err := ts.ReadTile(tile.Coord{Row: 9, Col: 9}); err == nil {
		t.Fatal("reading a missing tile through the wrapper succeeded")
	}
	if n := ts.calls.Load(); n != int64(p.grid.NumTiles())+1 {
		t.Errorf("counted %d calls, want %d", n, p.grid.NumTiles()+1)
	}
	if ts.bytes.Load() != bytes {
		t.Errorf("counted %d bytes, want %d", ts.bytes.Load(), bytes)
	}
	if ts.Grid() != p.grid {
		t.Errorf("grid %+v, want %+v", ts.Grid(), p.grid)
	}
}

// countingFile records the Write calls that reach it.
type countingFile struct {
	*os.File
	writes int64
}

func (f *countingFile) Write(b []byte) (int, error) {
	f.writes++
	return f.File.Write(b)
}

func TestTimedWriteSeekerPassesThrough(t *testing.T) {
	img := tile.NewGray16(700, 530)
	for i := range img.Pix {
		img.Pix[i] = uint16(i * 7)
	}
	write := func(path string, wrap bool) (*timedWriteSeeker, int64) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cf := &countingFile{File: f}
		var ws io.WriteSeeker = cf
		tw := &timedWriteSeeker{inner: cf}
		if wrap {
			ws = tw
		}
		pw, err := tiffio.NewPyramidWriter(ws, img.W, img.H, tiffio.PyramidOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WriteRows(0, img.Pix, img.H); err != nil {
			t.Fatal(err)
		}
		for l := 1; l < pw.NumLevels(); l++ {
			w, h := pw.LevelDims(l)
			if err := pw.WriteRows(l, make([]uint16, w*h), h); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		return tw, cf.writes
	}
	dir := t.TempDir()
	direct, wrapped := filepath.Join(dir, "direct.tif"), filepath.Join(dir, "wrapped.tif")
	write(direct, false)
	tw, writes := write(wrapped, true)
	a, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pyramid written through the wrapper differs from the direct one")
	}
	if tw.calls != writes {
		t.Errorf("wrapper counted %d writes, the file saw %d", tw.calls, writes)
	}
	if tw.bytes < int64(len(b)) {
		t.Errorf("wrapper counted %d bytes for a %d-byte file", tw.bytes, len(b))
	}
}

// TestSessionCallCounts checks the wrappers against the program's own
// counts on a traced session: phase 1 decodes every tile once, and
// compose decodes exactly the tiles its bands report. Serving the
// session's pyramid must answer every request correctly, and the
// positions checks count every tile, pair and the placement.
func TestSessionCallCounts(t *testing.T) {
	p := testPlate(t, smallMosaic)
	out := filepath.Join(t.TempDir(), "pyramid.tif")
	s, err := runSession(smallMosaic, p, out, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	cw, ch := s.pl.Bounds()
	v, err := serve(out, 1<<20, newViewers(1, tiffio.PyramidLevelDims(cw, ch, pyramidTileSide), 2).next(40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.requests != 40 || len(v.failures) != 0 {
		t.Errorf("served %d of 40 requests with failures %q", v.requests, v.failures)
	}
	if n := s.p1.calls.Load(); n != int64(p.grid.NumTiles()) {
		t.Errorf("decode_p1_calls = %d, want the %d tiles", n, p.grid.NumTiles())
	}
	if n, want := s.p3.calls.Load(), s.snap.Counters[obs.CounterComposeBandTiles]; n != want || n == 0 {
		t.Errorf("decode_p3_calls = %d, want compose.band.tiles = %d", n, want)
	}
	if bands := s.snap.Counters[obs.CounterComposeBands]; bands < 2 {
		t.Errorf("composed in %d bands, want the budget to force several", bands)
	}
	o, err := outcomeOf(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.grid.NumTiles() + len(p.grid.Pairs()) + 1; o.Attempted != want || o.Failed != 0 || o.Overlap != defaultOverlap {
		t.Errorf("positions outcome %+v, want %d checks, none failed, at %g overlap", o, want, defaultOverlap)
	}
	if s.spanS <= 0 || s.spanS > s.mosaic {
		t.Errorf("phase spans cover %v s of a %v s session", s.spanS, s.mosaic)
	}
}
