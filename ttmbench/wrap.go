package main

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// timedSource wraps the stitch.Source handed to the program and
// accumulates the count, wall time and decoded bytes of its ReadTile
// calls: the tile-decode layer measured from outside tiffio. It is safe
// for the concurrent reads the pipelines make.
type timedSource struct {
	inner stitch.Source
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
}

func (s *timedSource) Grid() tile.Grid { return s.inner.Grid() }

func (s *timedSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	t0 := time.Now()
	img, err := s.inner.ReadTile(c)
	s.nanos.Add(int64(time.Since(t0)))
	s.calls.Add(1)
	if img != nil {
		s.bytes.Add(int64(img.Bytes()))
	}
	return img, err
}

// seconds reports the summed ReadTile wall time.
func (s *timedSource) seconds() float64 { return time.Duration(s.nanos.Load()).Seconds() }

// timedWriteSeeker wraps the io.WriteSeeker handed to the pyramid
// writer and accumulates the Write calls, the bytes written and the wall
// time spent in Write and Seek: the pyramid-write layer measured from
// outside tiffio. The writer is single-goroutine, so plain fields do.
type timedWriteSeeker struct {
	inner io.WriteSeeker
	calls int64
	bytes int64
	nanos time.Duration
}

func (w *timedWriteSeeker) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.inner.Write(p)
	w.nanos += time.Since(t0)
	w.calls++
	w.bytes += int64(n)
	return n, err
}

func (w *timedWriteSeeker) Seek(offset int64, whence int) (int64, error) {
	t0 := time.Now()
	pos, err := w.inner.Seek(offset, whence)
	w.nanos += time.Since(t0)
	return pos, err
}

// discardSeeker is an io.WriteSeeker that keeps nothing: the sink for
// replaying the pyramid encoder without the file system. The encoder
// only seeks from the start.
type discardSeeker struct{}

func (discardSeeker) Write(p []byte) (int, error) { return len(p), nil }

func (discardSeeker) Seek(offset int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, errors.New("discardSeeker: only io.SeekStart is supported")
	}
	return offset, nil
}
