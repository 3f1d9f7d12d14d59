package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jsonski/internal/bits"
)

// This file implements Pison-style speculative parallel construction of
// the leveled bitmaps (paper §2 and Table 3: Pison's "Speculative
// Parallelism"). The input is cut into word-aligned chunks:
//
//	A. (parallel) each chunk runs the stage-1 classification pipeline
//	   assuming it starts with no pending escape, recording for BOTH
//	   possible string polarities the open/close counts and the
//	   resulting end state (speculation on the string state);
//	B. (serial, O(#chunks)) escape carries, string polarities, and
//	   absolute depths are stitched; a chunk whose escape-carry guess
//	   was wrong — its first byte is escaped by the previous chunk —
//	   is re-scanned with the corrected carry (the misspeculation
//	   penalty; rare in practice);
//	C. (parallel) each chunk re-runs the pipeline with its now-known
//	   start state and scatters colon/comma bits into the shared
//	   per-level bitmap words. Chunks are word-aligned, so their
//	   writes never touch the same word.
type chunkInfo struct {
	// per string-polarity (index 0: starts outside a string):
	depthDelta [2]int
	endInStr   [2]bool
	// escape-carry bookkeeping
	trailRun int  // length of the backslash run ending at the chunk end
	trailAll bool // the whole chunk is backslashes
}

// analyzeChunk runs phase A over data[lo:hi) with the given escape carry.
func analyzeChunk(data []byte, lo, hi int, escIn bool) chunkInfo {
	var ci chunkInfo
	var m bits.Masks
	ec := bits.EscapeCarry{}
	if escIn {
		ec = escapeCarrySeeded()
	}
	var sc0 bits.StringCarry // polarity 0; polarity 1 is its inversion
	for base := lo; base < hi; base += bits.WordSize {
		end := base + bits.WordSize
		if end > hi {
			end = hi
		}
		bits.Classify(&m, data[base:end])
		inStr := sc0.InStringMask(m.Quote &^ ec.Escaped(m.Backslash))
		// Mask off padding bits beyond the chunk for counting.
		valid := ^uint64(0)
		if n := end - base; n < bits.WordSize {
			valid = uint64(1)<<uint(n) - 1
		}
		opens := (m.LBrace | m.LBracket) & valid
		closes := (m.RBrace | m.RBracket) & valid
		ci.depthDelta[0] += bits.OnesCount(opens&^inStr) - bits.OnesCount(closes&^inStr)
		ci.depthDelta[1] += bits.OnesCount(opens&inStr) - bits.OnesCount(closes&inStr)
	}
	ci.endInStr[0] = sc0Ended(&sc0)
	ci.endInStr[1] = !ci.endInStr[0]
	// Trailing backslash run (for the escape carry hand-off).
	i := hi - 1
	for i >= lo && data[i] == '\\' {
		i--
	}
	ci.trailRun = hi - 1 - i
	ci.trailAll = i < lo
	return ci
}

// escapeCarrySeeded returns an EscapeCarry whose "previous byte escapes
// the first byte" flag is set.
func escapeCarrySeeded() bits.EscapeCarry {
	var ec bits.EscapeCarry
	// A single backslash in the last bit position leaves the carry set.
	ec.Escaped(1 << 63)
	return ec
}

func sc0Ended(sc *bits.StringCarry) bool {
	// StringCarry has no getter; probing with an empty word returns the
	// current polarity as bit 0 of the mask.
	m := sc.InStringMask(0)
	return m&1 != 0
}

// ParallelBuild constructs the same index as Build using `workers`
// goroutines and string-state speculation.
func ParallelBuild(data []byte, levels, workers int) (*Index, error) {
	if levels < 1 {
		levels = 1
	}
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	if workers <= 1 || words < 8 {
		return Build(data, levels)
	}
	nChunks := workers * 4
	if nChunks > words {
		nChunks = words
	}
	// Word-aligned chunk bounds.
	bounds := make([]int, nChunks+1)
	for i := 0; i <= nChunks; i++ {
		w := words * i / nChunks
		bounds[i] = w * bits.WordSize
	}
	bounds[nChunks] = len(data)

	// Phase A.
	infos := make([]chunkInfo, nChunks)
	parallelFor(nChunks, workers, func(i int) {
		infos[i] = analyzeChunk(data, bounds[i], bounds[i+1], false)
	})

	// Phase B: stitch escape carries, polarities, depths.
	escIn := make([]bool, nChunks)
	polarity := make([]int, nChunks)
	startDepth := make([]int, nChunks)
	esc := false
	inStr := false
	depth := -1
	for i := 0; i < nChunks; i++ {
		escIn[i] = esc
		if esc {
			// Misspeculation: redo phase A with the corrected carry.
			infos[i] = analyzeChunk(data, bounds[i], bounds[i+1], true)
		}
		p := 0
		if inStr {
			p = 1
		}
		polarity[i] = p
		startDepth[i] = depth
		depth += infos[i].depthDelta[p]
		inStr = infos[i].endInStr[p]
		// Escape carry out of this chunk.
		run := infos[i].trailRun
		if infos[i].trailAll && esc {
			run-- // the first backslash was itself escaped
		}
		esc = run%2 == 1
	}

	// Phase C: scatter per chunk with known start states.
	ix := &Index{data: data, levels: levels, words: words}
	ix.colons = make([][]uint64, levels)
	ix.commas = make([][]uint64, levels)
	buf := make([]uint64, 2*levels*words)
	for l := 0; l < levels; l++ {
		ix.colons[l] = buf[2*l*words : (2*l+1)*words]
		ix.commas[l] = buf[(2*l+1)*words : (2*l+2)*words]
	}
	var firstErr atomic.Value
	parallelFor(nChunks, workers, func(i int) {
		if err := ix.scatterChunk(bounds[i], bounds[i+1], escIn[i], polarity[i] == 1, startDepth[i]); err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	})
	if v := firstErr.Load(); v != nil {
		return nil, v.(error)
	}
	if depth != -1 {
		return nil, errUnbalanced(depth)
	}
	return ix, nil
}

func errUnbalanced(depth int) error {
	return fmt.Errorf("index: unbalanced input (final depth %d)", depth+1)
}

// scatterChunk is phase C for one chunk.
func (ix *Index) scatterChunk(lo, hi int, escIn, inStrIn bool, depth int) error {
	var m bits.Masks
	ec := bits.EscapeCarry{}
	if escIn {
		ec = escapeCarrySeeded()
	}
	var sc bits.StringCarry
	if inStrIn {
		sc.InStringMask(1) // flip polarity to "inside a string"
	}
	for base := lo; base < hi; base += bits.WordSize {
		end := base + bits.WordSize
		if end > hi {
			end = hi
		}
		bits.Classify(&m, ix.data[base:end])
		inStr := sc.InStringMask(m.Quote &^ ec.Escaped(m.Backslash))
		var err error
		depth, err = ix.scatterWord(&m, inStr, base/bits.WordSize, depth)
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelFor runs fn(0..n-1) across `workers` goroutines.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
