package store

import (
	"bufio"
	"bytes"
	"cmp"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
)

// This file is the store's sparse segment index: per-segment sidecar
// files mapping point-index runs to byte-offset runs, so a selective
// query reads only the byte ranges whose runs can match its predicate
// instead of decoding every segment line.
//
// On-disk format: segment-NNNN.idx sits next to segment-NNNN.jsonl, one
// JSON entry per line — {"off","len","n","lo","hi"} — describing a run
// of n consecutive records occupying segment bytes [off, off+len) whose
// point indices all lie in [lo, hi]. Entries tile the segment from byte
// 0 upward (entry k starts where entry k-1 ended), so sidecar coverage
// is a byte prefix of the segment. Entries are appended with one
// write(2) each, after the records they describe are on the segment —
// the same crash discipline as segments, with the same consequence: a
// crash tears at most the sidecar's final line, and a sidecar can only
// ever lag its segment (cover less), never lead it.
//
// Recovery: readers validate a sidecar structurally (parse, tiling,
// index bounds, shard congruence) and against the segment's length.
// A torn final line is dropped; coverage short of the segment means the
// uncovered tail is scanned and indexed on the fly; any inconsistency —
// mid-file garbage, coverage past the segment, overlap — discards the
// sidecar and rebuilds the index by a full segment scan. A sidecar can
// therefore never make a store unopenable or a query wrong; the worst a
// bad one costs is the scan the index would have saved. Writers never
// trust sidecars at all: Open's recovery scan rebuilds the index, and
// the first append to a segment rewrites its sidecar wholesale
// (deferred, like torn-tail truncation, so opening a shared store never
// mutates sidecars of segments owned by other live shard processes).
//
// Runs are kept sparse by construction (see runIndex.add): a run seals
// at maxRunRecords and at every cell boundary — so with cell-ordered
// appends (the single-writer sweep) runs align to cells exactly and
// family/strategy predicates prune them precisely — while adversarially
// interleaved appends, which would otherwise degenerate to one run per
// record, are bounded by compaction: past maxRunsPerSegment, adjacent
// runs merge pairwise into coarser spans that still prune by index
// range. The index can therefore cost at most ~1.5 MB of memory per
// segment no matter the append order, preserving the store's
// memory-flat promise.

// ErrReadOnly rejects mutations on a store opened with OpenRead.
var ErrReadOnly = errors.New("store: opened read-only")

const (
	// maxRunRecords seals a run at this many records, bounding how many
	// lines a matching run decodes beyond the predicate's true selection.
	maxRunRecords = 512
	// maxRunsPerSegment triggers pairwise compaction: appends that
	// alternate cells every record (possible through raw Append, never
	// through a sweep) would otherwise grow one run per record.
	maxRunsPerSegment = 1 << 16
)

// run describes n records occupying segment bytes [off, off+len) whose
// point indices lie within [lo, hi] (closed interval).
type run struct {
	off, len int64
	n        int
	lo, hi   int
}

// runEntry is run's sidecar wire form.
type runEntry struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
	N   int   `json:"n"`
	Lo  int   `json:"lo"`
	Hi  int   `json:"hi"`
}

// runIndex is one segment's in-memory index: runs in byte order, the
// last one still open (absorbing appends) until seal.
type runIndex struct {
	runs     []run
	open     bool
	lastCell int
	// compacted flips when compact() rewrote runs that may already have
	// flushed sidecar entries; the store resets its flush state and
	// re-reconciles the sidecar when it sees this.
	compacted bool
}

// add absorbs one record occupying [lineStart, lineEnd) with point index
// idx in cell ci, extending the open run or sealing it and starting a
// new one per the sparseness rules.
func (ix *runIndex) add(idx, ci int, lineStart, lineEnd int64) {
	if ix.open {
		r := &ix.runs[len(ix.runs)-1]
		if r.n < maxRunRecords && ci == ix.lastCell {
			r.len = lineEnd - r.off
			r.n++
			if idx < r.lo {
				r.lo = idx
			}
			if idx > r.hi {
				r.hi = idx
			}
			return
		}
		ix.open = false
	}
	if len(ix.runs) >= maxRunsPerSegment {
		ix.compact()
	}
	ix.runs = append(ix.runs, run{off: lineStart, len: lineEnd - lineStart, n: 1, lo: idx, hi: idx})
	ix.open = true
	ix.lastCell = ci
}

// compact halves the run count by merging adjacent pairs (they tile, so
// a merged run is just the pair's joint extent). Pruning gets coarser —
// a merged run spans both pair members' index ranges — but never wrong,
// and the amortized cost is O(1) per append.
func (ix *runIndex) compact() {
	merged := ix.runs[:0]
	for i := 0; i < len(ix.runs); i += 2 {
		r := ix.runs[i]
		if i+1 < len(ix.runs) {
			next := ix.runs[i+1]
			r.len = next.off + next.len - r.off
			r.n += next.n
			if next.lo < r.lo {
				r.lo = next.lo
			}
			if next.hi > r.hi {
				r.hi = next.hi
			}
		}
		merged = append(merged, r)
	}
	ix.runs = merged
	ix.open = false
	ix.compacted = true
}

// seal closes the open run so it becomes flushable; the next add starts
// a fresh run.
func (ix *runIndex) seal() { ix.open = false }

// closed returns how many runs are sealed (flushable to the sidecar).
func (ix *runIndex) closed() int {
	if ix.open {
		return len(ix.runs) - 1
	}
	return len(ix.runs)
}

// sidecarPath names segment i's index sidecar.
func sidecarPath(dir string, i int) string {
	return segmentPath(dir, i) + ".idx"
}

func encodeRun(r run) []byte {
	b, err := json.Marshal(runEntry{Off: r.off, Len: r.len, N: r.n, Lo: r.lo, Hi: r.hi})
	if err != nil {
		panic(err) // fixed struct of ints cannot fail to marshal
	}
	return append(b, '\n')
}

// flushIndex writes the segment's newly sealed runs to its sidecar. Only
// segments this process appended to are touched (seg.dirty); the first
// flush reconciles the sidecar wholesale — rewriting it from the
// authoritative in-memory index via temp+rename — which is also how a
// stale or torn sidecar heals. A sidecar write failure marks the sidecar
// dead and degrades silently: the index is derived data, and the next
// open rebuilds it by scan, so it must never fail a sweep. Callers hold
// seg.mu.
func (s *Store) flushIndex(i int, seg *segment) {
	if !seg.dirty || seg.idxDead {
		return
	}
	if seg.idx.compacted {
		// Compaction rewrote runs whose entries may already be on disk;
		// drop the flush state so the sidecar is reconciled from scratch.
		seg.idx.compacted = false
		seg.reconciled = false
		seg.idxFlushed = 0
		if seg.idxf != nil {
			seg.idxf.Close()
			seg.idxf = nil
		}
	}
	closed := seg.idx.closed()
	if !seg.reconciled {
		if err := s.reconcileSidecar(i, seg, closed); err != nil {
			seg.idxDead = true
			return
		}
		seg.reconciled = true
		seg.idxFlushed = closed
		return
	}
	for ; seg.idxFlushed < closed; seg.idxFlushed++ {
		if _, err := seg.idxf.Write(encodeRun(seg.idx.runs[seg.idxFlushed])); err != nil {
			seg.idxDead = true
			return
		}
	}
}

// reconcileSidecar rewrites segment i's sidecar to exactly the first
// closed runs of the in-memory index, atomically (temp file + rename),
// and leaves the renamed file open for appending further entries.
func (s *Store) reconcileSidecar(i int, seg *segment, closed int) error {
	path := sidecarPath(s.dir, i)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range seg.idx.runs[:closed] {
		buf.Write(encodeRun(r))
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	idxf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	seg.idxf = idxf
	return nil
}

// loadSidecar reads and validates segment i's sidecar. ok reports a
// structurally valid sidecar; runs are its entries and cover is the byte
// offset its tiling reaches. A torn final line is dropped (the segment
// crash rule, applied to the sidecar); any other inconsistency returns
// ok == false, sending the caller to the rebuild-by-scan path.
func (s *Store) loadSidecar(i int) (runs []run, cover int64, ok bool) {
	f, err := os.Open(sidecarPath(s.dir, i))
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// Trailing bytes without a newline: torn sidecar tail, drop.
			return runs, cover, true
		}
		if err != nil {
			return nil, 0, false
		}
		text := bytes.TrimSpace(line)
		if len(text) == 0 {
			continue
		}
		var e runEntry
		if err := json.Unmarshal(text, &e); err != nil {
			// Unparsable final line is a torn tail; anything after it is
			// corruption — either way the entry is unusable, and only a
			// clean EOF next keeps the prefix trustworthy.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				return runs, cover, true
			}
			return nil, 0, false
		}
		if e.Off != cover || e.Len <= 0 || e.N <= 0 ||
			e.Lo < 0 || e.Hi < e.Lo || e.Hi >= s.man.Points ||
			e.Lo%s.man.Shards != i || e.Hi%s.man.Shards != i {
			return nil, 0, false
		}
		runs = append(runs, run{off: e.Off, len: e.Len, n: e.N, lo: e.Lo, hi: e.Hi})
		cover = e.Off + e.Len
	}
}

// OpenRead opens a store for querying without scanning segments whose
// sidecar already indexes them: the manifest is validated exactly as
// Open does, then each segment's index loads from its sidecar, scanning
// only the bytes the sidecar does not cover (none, after a clean close;
// the unindexed tail, after a crash; the whole segment when the sidecar
// is missing, stale or corrupt — including stores written before
// sidecars existed). Nothing on disk is modified, no done bitmap is
// recovered, and mutating methods return ErrReadOnly: the handle serves
// Query, QueryFullScan, AggregateWhere, Each and Results.
func OpenRead(dir string, e *scenario.Expansion) (*Store, error) {
	man, err := readManifest(dir, e)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, e: e, readOnly: true}
	s.segs = make([]*segment, man.Shards)
	for i := range s.segs {
		seg := &segment{truncateAt: -1}
		s.segs[i] = seg
		runs, cover, ok := s.loadSidecar(i)
		var size int64
		if st, err := os.Stat(segmentPath(s.dir, i)); err == nil {
			size = st.Size()
		}
		if ok && cover <= size {
			seg.idx.runs = runs
			seg.end = cover
			if cover == size {
				continue
			}
		} else {
			// Missing, torn-beyond-repair or stale-past-the-segment
			// sidecar: rebuild this segment's index by a full scan.
			seg.idx = runIndex{}
			seg.end = 0
			cover = 0
			if size > 0 || ok {
				s.rebuilt++
			}
		}
		good, _, err := s.scanSegment(i, cover, func(r scenario.PointResult, lineStart, lineEnd int64) error {
			seg.idx.add(r.Index, s.e.CellOf(r.Index), lineStart, lineEnd)
			return nil
		})
		if err != nil {
			return nil, err
		}
		seg.end = good
	}
	return s, nil
}

// RebuiltSegments reports how many segments OpenRead had to re-index by
// scanning because their sidecar was missing, stale or corrupt. Zero
// after a clean close; always zero on write-mode handles (the writer
// rebuilds every index from its recovery scan regardless).
func (s *Store) RebuiltSegments() int { return s.rebuilt }

// QueryStats accounts one query execution — the evidence that pushdown
// pruned: BytesRead/LinesDecoded cover only the byte runs whose index
// span could match the predicate, versus BytesTotal/RunsTotal for the
// whole store.
type QueryStats struct {
	// SegmentsTouched counts segments with at least one matching run, of
	// SegmentsTotal.
	SegmentsTouched, SegmentsTotal int
	// RunsMatched counts index runs whose span overlapped the plan's
	// selection (and were therefore read), of RunsTotal.
	RunsMatched, RunsTotal int
	// BytesRead is the bytes fetched from matching runs; BytesTotal is
	// every segment's valid extent.
	BytesRead, BytesTotal int64
	// LinesDecoded counts records unmarshalled; Emitted counts records
	// that survived the residual filter and reached the caller.
	LinesDecoded, Emitted int64
}

// snapshotRuns copies the segment's current index and valid extent under
// its lock, so a query sees a consistent point-in-time view while
// appends continue.
func (seg *segment) snapshotRuns() ([]run, int64) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	return append([]run(nil), seg.idx.runs...), seg.end
}

// Query streams the plan's selection through fn, reading only byte runs
// whose index span can match: per segment, each run is pruned against
// the plan's cell selection and index range arithmetically, matching
// runs are fetched with one ReadAt each, and their records decode,
// validate, pass the residual per-record filter (runs straddling a
// boundary carry non-matching neighbors) and the plan's strategy
// projection before emission.
//
// Records arrive in global index order, whatever order they were
// appended in (concurrent sweeps append in completion order): each
// fetched run is sorted — runs hold at most maxRunRecords records until
// compaction merges them — and the runs of every segment are k-way
// merged. A run is fetched only when
// its lowest index is the smallest pending key, so memory holds just the
// runs whose index spans overlap. QueryFullScan emits the same records
// in the same order. Safe under concurrent appends: each segment's index
// is snapshotted, and runs only ever describe fully written records.
func (s *Store) Query(p *query.Plan, fn func(scenario.PointResult) error) (QueryStats, error) {
	var st QueryStats
	if err := s.checkPlan(p); err != nil {
		return st, err
	}
	st.SegmentsTotal = len(s.segs)
	var h runHeap
	for i, seg := range s.segs {
		runs, end := seg.snapshotRuns()
		st.RunsTotal += len(runs)
		st.BytesTotal += end
		matched := 0
		for _, r := range runs {
			if p.OverlapsSelection(r.lo, r.hi) {
				h = append(h, &runCursor{key: r.lo, seg: i, r: r})
				matched++
			}
		}
		if matched > 0 {
			st.SegmentsTouched++
			st.RunsMatched += matched
		}
	}
	heap.Init(&h)

	files := make([]*os.File, len(s.segs))
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	buf := make([]byte, 0, 256*1024)
	for len(h) > 0 {
		c := h[0]
		if !c.read {
			// The run's lowest index is the smallest pending key: fetch
			// it, keep its matching records sorted, and requeue it under
			// its first record.
			f := files[c.seg]
			if f == nil {
				var err error
				if f, err = os.Open(segmentPath(s.dir, c.seg)); err != nil {
					return st, err
				}
				files[c.seg] = f
			}
			if int64(cap(buf)) < c.r.len {
				buf = make([]byte, c.r.len)
			}
			b := buf[:c.r.len]
			if _, err := f.ReadAt(b, c.r.off); err != nil {
				return st, fmt.Errorf("store: reading indexed run of %s: %w", segmentPath(s.dir, c.seg), err)
			}
			st.BytesRead += c.r.len
			recs, err := s.decodeRun(p, c.seg, c.r, b, &st)
			if err != nil {
				return st, err
			}
			c.read, c.recs = true, recs
		} else {
			st.Emitted++
			if err := fn(c.recs[0]); err != nil {
				return st, err
			}
			c.recs = c.recs[1:]
		}
		if len(c.recs) == 0 {
			heap.Pop(&h)
			continue
		}
		c.key = c.recs[0].Index
		heap.Fix(&h, 0)
	}
	return st, nil
}

// runCursor is one input of Query's merge: a matching run not yet read,
// keyed by its lowest index, or the sorted records left of a read run,
// keyed by the next one's index.
type runCursor struct {
	key  int
	seg  int
	r    run
	read bool
	recs []scenario.PointResult
}

// runHeap orders cursors by key. On equal keys an unread run comes
// first (it may hold that index), then segment and byte order, so the
// merge is deterministic.
type runHeap []*runCursor

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.read != b.read {
		return !a.read
	}
	if a.seg != b.seg {
		return a.seg < b.seg
	}
	return a.r.off < b.r.off
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runCursor)) }
func (h *runHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// decodeRun decodes one fetched byte run and returns its matching,
// projected records sorted by index.
func (s *Store) decodeRun(p *query.Plan, segIdx int, r run, b []byte, st *QueryStats) ([]scenario.PointResult, error) {
	recs := make([]scenario.PointResult, 0, r.n)
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		var line []byte
		if nl < 0 {
			line, b = b, nil // sidecar runs end on record boundaries; tolerate anyway
		} else {
			line, b = b[:nl], b[nl+1:]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec scenario.PointResult
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("store: %s: corrupt record inside indexed run [%d,%d): %w (delete the .idx sidecar to force a rebuild)",
				segmentPath(s.dir, segIdx), r.off, r.off+r.len, err)
		}
		st.LinesDecoded++
		if err := s.validate(rec, segIdx); err != nil {
			return nil, fmt.Errorf("store: %s: %w", segmentPath(s.dir, segIdx), err)
		}
		if !p.Matches(rec.Index) {
			continue
		}
		out, err := p.Project(rec)
		if err != nil {
			return nil, err
		}
		recs = append(recs, out)
	}
	sortByIndex(recs)
	return recs, nil
}

// sortByIndex orders records by point index; a stable sort keeps the
// byte order of equal indices.
func sortByIndex(recs []scenario.PointResult) {
	slices.SortStableFunc(recs, func(a, b scenario.PointResult) int { return cmp.Compare(a.Index, b.Index) })
}

// QueryFullScan is Query's oracle: the same selection and projection
// computed the pre-index way, by decoding every record of every segment
// and filtering afterwards. It exists for differential testing and for
// auditing what pushdown saves (its stats count the full scan). It
// gathers the whole selection and sorts it by index before emitting, so
// its order is Query's global index order while sharing none of Query's
// merge; its memory grows with the selection.
func (s *Store) QueryFullScan(p *query.Plan, fn func(scenario.PointResult) error) (QueryStats, error) {
	var st QueryStats
	if err := s.checkPlan(p); err != nil {
		return st, err
	}
	st.SegmentsTotal = len(s.segs)
	st.SegmentsTouched = len(s.segs)
	var recs []scenario.PointResult
	for i, seg := range s.segs {
		runs, end := seg.snapshotRuns()
		st.RunsTotal += len(runs)
		st.RunsMatched += len(runs)
		st.BytesTotal += end
		st.BytesRead += end
		_, _, err := s.scanSegment(i, 0, func(r scenario.PointResult, lineStart, lineEnd int64) error {
			if lineEnd > end {
				return nil // appended after the snapshot; keep parity with Query
			}
			st.LinesDecoded++
			if !p.Matches(r.Index) {
				return nil
			}
			out, err := p.Project(r)
			if err != nil {
				return err
			}
			recs = append(recs, out)
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	sortByIndex(recs)
	for _, r := range recs {
		st.Emitted++
		if err := fn(r); err != nil {
			return st, err
		}
	}
	return st, nil
}

// AggregateWhere is the predicate-taking companion of Aggregate: it
// reduces only the plan's selection — through the indexed read path, so
// a selective aggregation stops paying full-store cost — into per-(cell,
// NPTGs, strategy) summary rows that tolerate partial groups. A nil plan
// aggregates everything unprojected (compiling the match-all query).
func (s *Store) AggregateWhere(p *query.Plan) ([]query.GroupRow, QueryStats, error) {
	if p == nil {
		var err error
		p, err = query.CompileCached(s.e, query.Query{To: query.NoLimit})
		if err != nil {
			return nil, QueryStats{}, err
		}
	}
	agg := query.NewGroupAggregator(p)
	st, err := s.Query(p, agg.Add)
	if err != nil {
		return nil, st, err
	}
	return agg.Rows(), st, nil
}

// checkPlan rejects a plan compiled against a different campaign than
// the store holds.
func (s *Store) checkPlan(p *query.Plan) error {
	if got := scenario.SpecDigest(p.Expansion().Spec); got != s.man.SpecDigest {
		return fmt.Errorf("store: plan compiled for campaign digest %.12s, store holds %.12s", got, s.man.SpecDigest)
	}
	return nil
}

// sortRunsCheck is referenced by tests asserting run ordering invariants.
func sortRunsCheck(runs []run) bool {
	return sort.SliceIsSorted(runs, func(i, j int) bool { return runs[i].off < runs[j].off })
}
