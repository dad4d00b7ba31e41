package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mptcpsim"
)

// ShardLogPath is the canonical spool location of shard k of n's run-log.
// The name is a pure function of the shard coordinates, so a re-leased
// worker resumes exactly the file its predecessor was writing, and anything
// that can write this file under the lease protocol can join the fleet.
func ShardLogPath(spool string, k, n int) string {
	return filepath.Join(spool, fmt.Sprintf("shard-%d-of-%d.ndjson", k, n))
}

// OpenShardLog opens the shard run-log at path for writing, resuming
// whatever a previous writer left behind — the one open-or-resume path of
// both the fleet's workers and `sweep -resume`. A missing or empty file
// (or one torn inside its header) starts fresh; a committed log is
// validated against header's digest and shard shape, has any torn
// trailing record truncated, and yields the already-committed indices as
// the skip set plus the failed-run count among them. headerOnDisk reports
// whether a committed header is already present, in which case the
// caller's LogSink must open in Resume mode. When notices is non-nil, a
// torn header or torn trailing record is announced there.
func OpenShardLog(path string, header mptcpsim.RunLogHeader, notices io.Writer) (f *os.File, skip map[int]bool, prevErrs int, headerOnDisk bool, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, nil, 0, false, err
	}
	fail := func(e error) (*os.File, map[int]bool, int, bool, error) {
		f.Close()
		return nil, nil, 0, false, e
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if st.Size() == 0 {
		return f, nil, 0, false, nil
	}
	log, err := mptcpsim.ReadRunLog(f)
	if errors.Is(err, mptcpsim.ErrHeaderTorn) {
		// The previous writer died inside the header: nothing committed,
		// nothing to resume. Start the shard over rather than refusing.
		if err := f.Truncate(0); err != nil {
			return fail(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fail(err)
		}
		if notices != nil {
			fmt.Fprintf(notices, "resume: %s: header torn, nothing to resume; re-executing the full shard\n", path)
		}
		return f, nil, 0, false, nil
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", path, err))
	}
	if log.Header.GridDigest != header.GridDigest {
		return fail(fmt.Errorf("%s: run-log grid digest %.12s does not match this sweep's %.12s (different grid, -check or library version, or a stale spool?); resume with the original settings or start a fresh log",
			path, log.Header.GridDigest, header.GridDigest))
	}
	if log.Header.K != header.K || log.Header.N != header.N || log.Header.Total != header.Total {
		return fail(fmt.Errorf("%s: run-log is shard %d/%d of %d runs, this sweep is shard %d/%d of %d; resume with the original shard",
			path, log.Header.K, log.Header.N, log.Header.Total, header.K, header.N, header.Total))
	}
	if log.Torn() {
		if notices != nil {
			fmt.Fprintf(notices, "resume: truncating torn trailing record at byte %d of %s; its run will be re-executed\n",
				log.TornTail, path)
		}
		if err := f.Truncate(log.TornTail); err != nil {
			return fail(err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(err)
	}
	return f, log.Indices(), log.Errs(), true, nil
}

// shardTail incrementally reads committed records out of one shard's
// run-log while a worker appends to it — the coordinator's live-progress
// feed. Only complete lines (the trailing newline is the commit mark) are
// consumed; a torn tail is simply not yet visible. If the file shrinks —
// a resumed worker truncating a torn record, or a header-torn restart —
// the tail re-reads from the start and the seen set keeps delivery
// exactly-once.
type shardTail struct {
	mu         sync.Mutex
	path       string
	offset     int64
	headerDone bool
	seen       map[int]bool

	agg    *mptcpsim.AggSink
	failed int
}

func newShardTail(path string) *shardTail {
	return &shardTail{path: path, seen: make(map[int]bool), agg: &mptcpsim.AggSink{}}
}

// poll folds newly committed records into the tail's aggregate and returns
// how many new runs (and how many of them failed) it saw. A missing file
// is zero progress, not an error: the shard's first lease has not started
// writing yet.
func (t *shardTail) poll() (newDone, newFailed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() < t.offset {
		// The log was cut back (torn-record or torn-header truncation by a
		// resuming worker). Committed records are never removed, so re-read
		// from the start and let the seen set drop duplicates.
		t.offset = 0
		t.headerDone = false
	}
	if st.Size() == t.offset {
		return 0, 0, nil
	}
	if _, err := f.Seek(t.offset, io.SeekStart); err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	for {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // uncommitted tail: wait for the newline
		}
		line := raw[:nl+1]
		raw = raw[nl+1:]
		t.offset += int64(len(line))
		if !t.headerDone {
			t.headerDone = true
			continue
		}
		var rec mptcpsim.RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A committed but unparseable line means the file is not the
			// single-writer log we think it is; surface it.
			return newDone, newFailed, fmt.Errorf("%s: tail record: %w", t.path, err)
		}
		if t.seen[rec.Run.Index] {
			continue
		}
		t.seen[rec.Run.Index] = true
		newDone++
		if rec.Run.Err != "" {
			newFailed++
			t.failed++
		}
		t.agg.Accept(0, 0, rec.Run, nil)
	}
	return newDone, newFailed, nil
}

// snapshot merges the tail's aggregate into dst under the tail's lock.
func (t *shardTail) snapshot(dst *mptcpsim.AggSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst.Merge(t.agg)
}
