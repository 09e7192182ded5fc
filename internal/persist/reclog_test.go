package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openLog opens a RecordLog in dir collecting every replayed record.
func openLog(t *testing.T, dir string) (*RecordLog, [][]byte) {
	t.Helper()
	var replayed [][]byte
	l, err := OpenRecordLog(RecordLogConfig{Dir: dir, Prefix: "t"},
		func(idx uint64, body []byte) error {
			if int(idx) != len(replayed) {
				t.Fatalf("replay index %d, want %d", idx, len(replayed))
			}
			replayed = append(replayed, append([]byte{}, body...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return l, replayed
}

func appendN(t *testing.T, l *RecordLog, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		idx, err := l.Append([]byte(fmt.Sprintf("rec-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("Append index %d, want %d", idx, i)
		}
	}
}

func TestRecordLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, replayed := openLog(t, dir)
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d records", len(replayed))
	}
	appendN(t, l, 0, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed := openLog(t, dir)
	defer l2.Close()
	if len(replayed) != 5 || string(replayed[3]) != "rec-003" {
		t.Fatalf("replayed %d records, [3]=%q", len(replayed), replayed[3])
	}
	if l2.NextIndex() != 5 {
		t.Fatalf("NextIndex = %d, want 5", l2.NextIndex())
	}
	if s := l2.Stats(); s.Replayed != 5 || s.TailTruncated {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecordLogRollRangePrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	defer l.Close()
	appendN(t, l, 0, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if len(segs) != 3 || segs[0] != 0 || segs[1] != 3 || segs[2] != 6 {
		t.Fatalf("segments = %v", segs)
	}
	// Range from the middle of a sealed segment.
	var got []string
	if err := l.Range(4, func(idx uint64, body []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", idx, body))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := "4:rec-004 5:rec-005 6:rec-006 7:rec-007"
	if strings.Join(got, " ") != want {
		t.Fatalf("Range = %q, want %q", strings.Join(got, " "), want)
	}
	// Prune below record 3: the first segment goes, the rest stay.
	if err := l.PruneTo(3); err != nil {
		t.Fatal(err)
	}
	segs = l.Segments()
	if len(segs) != 2 || segs[0] != 3 {
		t.Fatalf("segments after prune = %v", segs)
	}
	if err := l.Range(0, func(idx uint64, body []byte) error {
		if idx < 3 {
			return fmt.Errorf("pruned record %d resurfaced", idx)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLogTruncateFrom(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	appendN(t, l, 0, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 4)
	// Truncate inside the active segment: records 5.. go.
	if err := l.TruncateFrom(5); err != nil {
		t.Fatal(err)
	}
	if l.NextIndex() != 5 {
		t.Fatalf("NextIndex = %d, want 5", l.NextIndex())
	}
	appendN(t, l, 5, 1)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed := openLog(t, dir)
	defer l2.Close()
	if len(replayed) != 6 || string(replayed[5]) != "rec-005" {
		t.Fatalf("replayed %d records, [5]=%q", len(replayed), replayed[5])
	}
}

// TestRecordLogTornTailRecovered mirrors the executor WAL contract: a
// torn frame at the newest segment's tail (the expected crash shape) is
// truncated on open, and the log continues from the durable prefix.
func TestRecordLogTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	appendN(t, l, 0, 4)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last 3 bytes of the active segment, leaving
	// a frame whose body is shorter than its length prefix promises.
	path := filepath.Join(dir, segmentFileName("t", 0))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, replayed := openLog(t, dir)
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(replayed))
	}
	if s := l2.Stats(); !s.TailTruncated {
		t.Fatal("TailTruncated not reported")
	}
	// The log must be appendable right where the tear was cut.
	appendN(t, l2, 3, 1)
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, replayed := openLog(t, dir)
	defer l3.Close()
	if len(replayed) != 4 || string(replayed[3]) != "rec-003" {
		t.Fatalf("after repair: replayed %d, [3]=%q", len(replayed), replayed[3])
	}
}

// TestRecordLogMidLogCorruptionFatal: a bad frame anywhere but the newest
// segment's tail is disk corruption, not a crash artifact — the open must
// fail loudly instead of silently dropping history.
func TestRecordLogMidLogCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	appendN(t, l, 0, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the sealed first segment: its CRC no longer
	// matches, and the segment is not the newest.
	path := filepath.Join(dir, segmentFileName("t", 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRecordLog(RecordLogConfig{Dir: dir, Prefix: "t"},
		func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("open succeeded over mid-log corruption")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRecordLogDoubleOpenRejected: the directory flock keeps a second
// process (or a leaked handle) from mounting the same log concurrently.
func TestRecordLogDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	defer l.Close()
	if _, err := OpenRecordLog(RecordLogConfig{Dir: dir, Prefix: "t"},
		func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("second open on a locked directory succeeded")
	}
}

// TestRecordLogCrashDropsUnsynced pins the one sync rule: Append never
// syncs, so Crash discards appends made after the last sync — the
// page-cache bytes a power loss would eat — and Sync, Roll and Close
// each make the tail durable.
func TestRecordLogCrashDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	appendN(t, l, 0, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 3) // never synced
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l, replayed := openLog(t, dir)
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records after crash, want 2", len(replayed))
	}
	if l.NextIndex() != 2 {
		t.Fatalf("NextIndex = %d, want 2", l.NextIndex())
	}

	// Each of Sync, Roll and Close issues one fsync for a two-record tail,
	// which then survives Crash. Close ends the log, so it reopens before
	// crashing.
	want := 2
	for _, step := range []struct {
		name    string
		persist func(*RecordLog) error
	}{
		{"Sync", (*RecordLog).Sync},
		{"Roll", (*RecordLog).Roll},
		{"Close", (*RecordLog).Close},
	} {
		appendN(t, l, want, 2)
		want += 2
		before := l.Stats().Syncs
		if err := step.persist(l); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().Syncs - before; got != 1 {
			t.Fatalf("%s issued %d fsyncs for a dirty tail, want 1", step.name, got)
		}
		if step.name == "Close" {
			l, _ = openLog(t, dir)
		}
		if err := l.Crash(); err != nil {
			t.Fatal(err)
		}
		l, replayed = openLog(t, dir)
		if len(replayed) != want {
			t.Fatalf("after %s and Crash: replayed %d records, want %d", step.name, len(replayed), want)
		}
	}
	l.Close()
}

// TestRecordLogRollEmptyIsNoop: rolling an empty active segment must not
// register a second segment under the same start index (and file name) —
// reachable with any SegmentBytes at or below the 16-byte header.
func TestRecordLogRollEmptyIsNoop(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir)
	for i := 0; i < 2; i++ {
		if err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(t, l, 0, 1)
	if segs := l.Segments(); len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("segments after rolling an empty log = %v, want [0]", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed := openLog(t, dir)
	defer l2.Close()
	if segs := l2.Segments(); len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("segments after reopen = %v, want [0]", segs)
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d records, want 1", len(replayed))
	}
}

// TestRecordLogReset: Reset drops every record and restarts the index
// space above the old tip; a crash between its removals and the fresh
// segment leaves a log that still opens.
func TestRecordLogReset(t *testing.T) {
	dir := t.TempDir()
	open := func() (*RecordLog, []uint64) {
		t.Helper()
		var idxs []uint64
		l, err := OpenRecordLog(RecordLogConfig{Dir: dir, Prefix: "t"},
			func(idx uint64, _ []byte) error { idxs = append(idxs, idx); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return l, idxs
	}
	l, _ := open()
	appendN(t, l, 0, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)
	if err := l.Reset(40); err != nil {
		t.Fatal(err)
	}
	if first, next := l.FirstIndex(), l.NextIndex(); first != 40 || next != 40 {
		t.Fatalf("after Reset: first %d next %d, want 40 40", first, next)
	}
	appendN(t, l, 40, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, idxs := open()
	if len(idxs) != 2 || idxs[0] != 40 || idxs[1] != 41 || l2.NextIndex() != 42 {
		t.Fatalf("reopen after Reset replayed %v, next %d", idxs, l2.NextIndex())
	}
	if segs := l2.Segments(); len(segs) != 1 || segs[0] != 40 {
		t.Fatalf("segments = %v, want [40]", segs)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash after the removals, before the fresh segment: nothing is left.
	if err := os.Remove(filepath.Join(dir, segmentFileName("t", 40))); err != nil {
		t.Fatal(err)
	}
	l3, idxs := open()
	if len(idxs) != 0 || l3.NextIndex() != 0 {
		t.Fatalf("empty directory replayed %v, next %d", idxs, l3.NextIndex())
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash inside the fresh segment's creation: the file exists without
	// its header. The log must rewrite it, not append frames to a headless
	// file.
	if err := os.Truncate(filepath.Join(dir, segmentFileName("t", 0)), 5); err != nil {
		t.Fatal(err)
	}
	l4, _ := open()
	appendN(t, l4, 0, 1)
	if err := l4.Close(); err != nil {
		t.Fatal(err)
	}
	l5, idxs := open()
	defer l5.Close()
	if len(idxs) != 1 {
		t.Fatalf("after header repair replayed %v, want one record", idxs)
	}
}
