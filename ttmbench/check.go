package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/global"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// maxPlacementRMS is the placement error, in pixels against the
// generator's ground truth, above which a session counts as wrong.
const maxPlacementRMS = 1.0

// reference is what every session's output must reproduce, computed
// once per run from the warm-up session: its placement and the pixel
// hash of the in-memory composite on it.
type reference struct {
	x, y []int
	hash [sha256.Size]byte
}

// newReference composes the warm-up session's placement in memory.
// ComposeSharded is documented bit-identical to Compose, so the pixel
// hash of this composite is what pyramid level 0 must hold. Only the
// hash is kept, so the composite does not stay resident in the
// measured sessions.
func newReference(p *plate, s *session) (*reference, error) {
	src := stitch.MaskDegraded(&stitch.DirSource{Dir: p.dir, GridSpec: p.grid}, s.res)
	img, err := compose.Compose(s.pl, src, compose.BlendOverlay)
	if err != nil {
		return nil, fmt.Errorf("reference composite: %w", err)
	}
	return &reference{x: s.pl.X, y: s.pl.Y, hash: pixelHash(img)}, nil
}

// pixelHash is the SHA-256 of an image's dimensions and little-endian
// pixels.
func pixelHash(img *tile.Gray16) [sha256.Size]byte {
	h := sha256.New()
	// Writes to a hash.Hash never fail.
	_ = binary.Write(h, binary.LittleEndian, [2]uint32{uint32(img.W), uint32(img.H)})
	_ = binary.Write(h, binary.LittleEndian, img.Pix)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// tally counts operations attempted and failed across a run.
type tally struct {
	attempted, failed int
	failures          []string // the first few, for the log
}

func (t *tally) op(failure string) {
	t.attempted++
	if failure != "" {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, failure)
		}
	}
}

// check counts a session's operations and verifies its outputs: phase 1
// tiles and pairs, the placement, the pyramid file and the viewer
// phase's requests.
func (t *tally) check(s *session, ref *reference, p *plate, out string) {
	t.checkPositions(s, p)
	msg := ""
	if !slices.Equal(s.pl.X, ref.x) || !slices.Equal(s.pl.Y, ref.y) {
		msg = "placement differs from the reference run's"
	}
	t.op(msg)
	t.op(checkPyramid(out, s.pl, ref))
	if v := s.view; v != nil {
		for _, f := range v.failures {
			t.op(f)
		}
		for i := len(v.failures); i < v.requests; i++ {
			t.op("")
		}
	}
}

// checkPositions counts phase 1's tiles and pairs, degraded ones as
// failures, and the placement, which fails beyond maxPlacementRMS of the
// ground truth.
func (t *tally) checkPositions(s *session, p *plate) {
	g := p.grid
	bad := map[tile.Coord]bool{}
	for _, dt := range s.res.DegradedTiles {
		bad[dt.Coord] = true
	}
	for i := 0; i < g.NumTiles(); i++ {
		msg := ""
		if c := g.CoordOf(i); bad[c] {
			msg = fmt.Sprintf("tile %v degraded", c)
		}
		t.op(msg)
	}
	badPair := map[tile.Pair]bool{}
	for _, dp := range s.res.DegradedPairs {
		badPair[dp.Pair] = true
	}
	for _, pr := range g.Pairs() {
		msg := ""
		if badPair[pr] {
			msg = fmt.Sprintf("pair %v degraded", pr)
		}
		t.op(msg)
	}
	rms, err := global.RMSError(s.pl, p.truthX, p.truthY)
	switch {
	case err != nil:
		t.op(err.Error())
	case rms > maxPlacementRMS:
		t.op(fmt.Sprintf("placement RMS %.2f px exceeds %.1f px", rms, maxPlacementRMS))
	default:
		t.op("")
	}
}

// checkPyramid reopens the pyramid file: its levels must have the
// dimensions the placement implies, every tile must decode, and level 0
// must hash to the reference composite.
func checkPyramid(path string, pl *global.Placement, ref *reference) string {
	pf, err := tiffio.OpenPyramidFile(path)
	if err != nil {
		return fmt.Sprintf("pyramid: %v", err)
	}
	defer pf.Close()
	w, h := pl.Bounds()
	dims := tiffio.PyramidLevelDims(w, h, pyramidTileSide)
	if pf.NumLevels() != len(dims) {
		return fmt.Sprintf("pyramid has %d levels, want %d", pf.NumLevels(), len(dims))
	}
	for l, d := range dims {
		if lv := pf.Level(l); lv.W != d[0] || lv.H != d[1] {
			return fmt.Sprintf("pyramid level %d is %dx%d, want %dx%d", l, lv.W, lv.H, d[0], d[1])
		}
		img, err := pf.Image(l)
		if err != nil {
			return fmt.Sprintf("pyramid level %d: %v", l, err)
		}
		if l == 0 && pixelHash(img) != ref.hash {
			return "pyramid level 0 differs from the in-memory composite"
		}
	}
	return ""
}

// positionsOutcome is how phase 1 and the solve fared on a plate.
type positionsOutcome struct {
	Overlap        float64  `json:"overlap"`
	PlacementRMSPx float64  `json:"placement_rms_px"`
	DroppedEdges   int      `json:"dropped_edges"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
}

// outcomeOf runs the positions checks on a session over p.
func outcomeOf(s *session, p *plate) (*positionsOutcome, error) {
	rms, err := global.RMSError(s.pl, p.truthX, p.truthY)
	if err != nil {
		return nil, err
	}
	var t tally
	t.checkPositions(s, p)
	return &positionsOutcome{
		Overlap: p.grid.OverlapX, PlacementRMSPx: rms, DroppedEdges: s.pl.Dropped,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
	}, nil
}

// defaultOverlapProbe stitches w's plate shape, generated from seed, at
// defaultOverlap, through the same sequence as a session, outside the
// timed region. The seed code is known to miss the placement check
// there on some seeds, so the probe's failures are reported as expected
// ones, apart from the run's failed operations, until a fix brings them
// to 0.
func defaultOverlapProbe(w workload, seed int64, dir string) (*positionsOutcome, error) {
	w.overlap = defaultOverlap
	p, err := writePlate(w, seed, filepath.Join(dir, "probe"))
	if err != nil {
		return nil, fmt.Errorf("default-overlap probe: %w", err)
	}
	s, err := runSession(w, p, filepath.Join(dir, "probe.tif"), nil, false)
	if err != nil {
		return nil, fmt.Errorf("default-overlap probe: %w", err)
	}
	return outcomeOf(s, p)
}
