package main

import (
	"bytes"
	"image"
	"image/png"
	"reflect"
	"testing"

	"hybridstitch/internal/tiffio"
)

func TestViewerTrafficIsSeeded(t *testing.T) {
	dims := tiffio.PyramidLevelDims(3482, 2605, pyramidTileSide)
	traffic := func(seed int64) [][][]tileAddr {
		v := newViewers(seed, dims, 2)
		return [][][]tileAddr{v.next(250), v.next(250), v.next(500)}
	}
	a := traffic(7)
	if !reflect.DeepEqual(a, traffic(7)) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, traffic(8)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("successive batches repeat the same requests")
	}
	if n := len(a[2][0]); n != 250 {
		t.Fatalf("client sequence has %d requests, want 250", n)
	}
	// Each client's viewer sessions continue across batches: every
	// session opens with the overview tile, then visits level-0 tiles.
	top, checks := len(dims)-1, 0
	for c := range a[0] {
		var seq []tileAddr
		for _, batch := range a {
			seq = append(seq, batch[c]...)
		}
		for i, r := range seq {
			wantLevel := 0
			if i%sessionLen == 0 {
				wantLevel = top
			}
			if r.level != wantLevel {
				t.Fatalf("client %d request %d is at level %d, want %d", c, i, r.level, wantLevel)
			}
			d := dims[r.level]
			if r.tx < 0 || r.ty < 0 || r.tx*pyramidTileSide >= d[0] || r.ty*pyramidTileSide >= d[1] {
				t.Fatalf("request %+v outside level %d (%dx%d)", r, r.level, d[0], d[1])
			}
			if r.check {
				checks++
			}
		}
	}
	if checks == 0 {
		t.Error("trace has no pixel-checked samples")
	}
}

func TestPNGDims(t *testing.T) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, image.NewGray16(image.Rect(0, 0, 37, 21))); err != nil {
		t.Fatal(err)
	}
	if w, h := pngDims(buf.Bytes()); w != 37 || h != 21 {
		t.Errorf("pngDims = %dx%d, want 37x21", w, h)
	}
	if w, h := pngDims([]byte("not a png")); w != -1 || h != -1 {
		t.Errorf("pngDims(garbage) = %d, %d, want -1, -1", w, h)
	}
}
