package wal

// Log replay. The rules for damage, chosen so recovery is deterministic
// and never loses acknowledged history silently:
//
//   - A record that runs past end-of-file, has an impossible length, or
//     fails its checksum *as the final record* is a torn tail — the
//     expected shape of a crash mid-write. It is truncated away and
//     recovery succeeds with everything before it.
//   - A record that fails its checksum (or fails to decode) with more
//     log after it is interior corruption. Recovery refuses to skip it:
//     replaying records after a hole would rebuild a store that never
//     existed. The caller gets a CorruptError naming the offset.
//   - Records whose sequence is ≤ the snapshot's are skipped: a crash
//     between checkpoint rename and log truncation legitimately leaves
//     them behind.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// replayResult summarizes one replay pass.
type replayResult struct {
	skipped   int
	lastSeq   uint64
	goodSize  int64
	tornBytes int64
}

// replayLog scans f (an opened wal.log), collects the post-snapshot
// records in dump.Log, truncates any torn tail, and leaves f positioned
// for appending.
func replayLog(f *os.File, snapSeq uint64, dump *StoreDump) (replayResult, error) {
	var res replayResult
	st, err := f.Stat()
	if err != nil {
		return res, err
	}
	size := st.Size()
	headerLen := int64(len(walMagic))

	if size < headerLen {
		// Brand-new log, or one torn inside the header: (re)initialize.
		res.tornBytes = size
		if err := f.Truncate(0); err != nil {
			return res, err
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			return res, err
		}
		if err := f.Sync(); err != nil {
			return res, err
		}
		res.goodSize = headerLen
		_, err = f.Seek(headerLen, io.SeekStart)
		return res, err
	}

	magic := make([]byte, headerLen)
	if _, err := f.ReadAt(magic, 0); err != nil {
		return res, err
	}
	if string(magic) != walMagic {
		// Not our file: refuse rather than destroy whatever this is.
		return res, &CorruptError{File: logName, Offset: 0,
			Detail: fmt.Sprintf("bad magic %q (not a wal file)", magic)}
	}

	r := bufio.NewReaderSize(io.NewSectionReader(f, headerLen, size-headerLen), 1<<16)
	off := headerLen
	var prevSeq uint64
	torn := false
	for {
		var hdr [recHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean end of log
			}
			if err == io.ErrUnexpectedEOF {
				torn = true // partial header: crash mid-write
				break
			}
			return res, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if uint64(length) > MaxRecordBytes || int64(length) > size-off-recHeaderLen {
			// Impossible length: either a torn length prefix or a record
			// cut short by the crash. Both are tail damage.
			torn = true
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return res, err // size-checked above; only a real I/O error lands here
		}
		recEnd := off + recHeaderLen + int64(length)
		atEOF := recEnd == size
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			if atEOF {
				torn = true // bit-flipped or half-written final record
				break
			}
			return res, &CorruptError{File: logName, Offset: off,
				Detail: fmt.Sprintf("checksum mismatch (got %08x, want %08x) with %d bytes of log after it",
					got, wantCRC, size-recEnd)}
		}
		rec, derr := DecodePayload(payload)
		if derr != nil {
			if atEOF {
				torn = true
				break
			}
			return res, &CorruptError{File: logName, Offset: off,
				Detail: fmt.Sprintf("undecodable record with %d bytes of log after it: %v", size-recEnd, derr)}
		}
		if rec.Seq <= prevSeq {
			// The checksum passed, so these bytes were written this way:
			// a sequence that does not advance is logic-level corruption.
			return res, &CorruptError{File: logName, Offset: off,
				Detail: fmt.Sprintf("sequence went from %d to %d", prevSeq, rec.Seq)}
		}
		prevSeq = rec.Seq
		if rec.Seq <= snapSeq {
			res.skipped++ // pre-checkpoint leftover, already in the snapshot
		} else {
			dump.Log = append(dump.Log, rec)
		}
		res.lastSeq = rec.Seq
		off = recEnd
	}

	res.goodSize = off
	if torn || off < size {
		res.tornBytes = size - off
		if err := f.Truncate(off); err != nil {
			return res, err
		}
		if err := f.Sync(); err != nil {
			return res, err
		}
	}
	_, err = f.Seek(off, io.SeekStart)
	return res, err
}
