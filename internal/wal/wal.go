package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when the log is fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before an append is acknowledged (group commit:
	// concurrent appends share one fsync). An acknowledged write
	// survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.SyncEvery); a crash can
	// lose up to one interval of acknowledged writes.
	SyncInterval
	// SyncOff never fsyncs; durability is whatever the OS flushes. The
	// log still makes clean restarts exact.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spelling ("always" / "interval" /
// "off") to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("unknown wal sync policy %q (want always, interval, or off)", s)
	}
}

// Options configures a Manager.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 50ms).
	SyncEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	return o
}

// Stats is a point-in-time copy of the manager's counters.
type Stats struct {
	// Appends counts records appended; AppendBytes their framed size.
	Appends     int64 `json:"appends"`
	AppendBytes int64 `json:"append_bytes"`
	// Fsyncs counts fsync syscalls on the log (group commit batches many
	// appends into one).
	Fsyncs int64 `json:"fsyncs"`
	// Checkpoints counts completed checkpoints; LastCheckpointNs is the
	// duration of the most recent one and CheckpointNs their sum.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointNs     int64 `json:"checkpoint_ns"`
	LastCheckpointNs int64 `json:"last_checkpoint_ns"`
	// RecoveryNs is how long Open spent reading the store back;
	// RecoveredRecords how many log records it found after the snapshot;
	// TornTailBytes how many trailing bytes it discarded as torn.
	RecoveryNs       int64 `json:"recovery_ns"`
	RecoveredRecords int64 `json:"recovered_records"`
	TornTailBytes    int64 `json:"torn_tail_bytes"`
	// Seq is the last assigned record sequence number; DurableSeq the
	// last sequence known flushed to disk; WALBytes the current log size.
	Seq        int64 `json:"seq"`
	DurableSeq int64 `json:"durable_seq"`
	WALBytes   int64 `json:"wal_bytes"`
}

// Manager owns one data directory: the append-only log and its
// checkpoint snapshot. Safe for concurrent use; appends are serialized,
// sync waiters batch into shared fsyncs (group commit).
type Manager struct {
	dir  string
	opts Options

	// mu serializes appends, checkpoints, and file repositioning.
	mu   sync.Mutex
	f    *os.File
	seq  uint64
	size int64

	// Group-commit state: appended/synced are sequence watermarks; a
	// waiter either becomes the syncer (one fsync covers every record
	// appended before it started) or sleeps until a syncer finishes.
	gc struct {
		mu       sync.Mutex
		cond     *sync.Cond
		appended uint64
		synced   uint64
		inFlight bool
	}

	// broken holds the first fatal durability error; once set, every
	// later mutation fails with it.
	broken atomic.Pointer[BrokenError]
	closed atomic.Bool

	appends     atomic.Int64
	appendBytes atomic.Int64
	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	checkNs     atomic.Int64
	lastCheckNs atomic.Int64
	recovery    RecoveryInfo

	stopSyncer chan struct{}
	syncerDone chan struct{}
}

// Dir returns the manager's data directory.
func (m *Manager) Dir() string { return m.dir }

// Policy returns the manager's sync policy.
func (m *Manager) Policy() SyncPolicy { return m.opts.Sync }

// Recovery returns what Open's recovery pass did.
func (m *Manager) Recovery() RecoveryInfo { return m.recovery }

// StatsSnapshot returns a point-in-time copy of the counters.
func (m *Manager) StatsSnapshot() Stats {
	m.gc.mu.Lock()
	synced := m.gc.synced
	m.gc.mu.Unlock()
	m.mu.Lock()
	seq, size := m.seq, m.size
	m.mu.Unlock()
	return Stats{
		Appends:          m.appends.Load(),
		AppendBytes:      m.appendBytes.Load(),
		Fsyncs:           m.fsyncs.Load(),
		Checkpoints:      m.checkpoints.Load(),
		CheckpointNs:     m.checkNs.Load(),
		LastCheckpointNs: m.lastCheckNs.Load(),
		RecoveryNs:       m.recovery.DurationNs,
		RecoveredRecords: int64(m.recovery.Records),
		TornTailBytes:    m.recovery.TornTailBytes,
		Seq:              int64(seq),
		DurableSeq:       int64(synced),
		WALBytes:         size,
	}
}

// fail poisons the manager with err (keeping the first failure) and
// returns the poison error. Waiters blocked on a sync are woken so they
// observe the failure instead of hanging.
func (m *Manager) fail(err error) error {
	be := &BrokenError{Err: err}
	if !m.broken.CompareAndSwap(nil, be) {
		be = m.broken.Load()
	}
	m.gc.mu.Lock()
	m.gc.cond.Broadcast()
	m.gc.mu.Unlock()
	return be
}

// check returns the poison or closed error, if any.
func (m *Manager) check() error {
	if be := m.broken.Load(); be != nil {
		return be
	}
	if m.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Append assigns the next sequence number to rec, writes it to the
// log, and — under SyncAlways — blocks until it is on disk. A nil
// return means the record is durable to the policy's guarantee; any
// error poisons the manager.
func (m *Manager) Append(rec *Record) error {
	if err := m.check(); err != nil {
		return err
	}
	m.mu.Lock()
	if err := m.check(); err != nil {
		m.mu.Unlock()
		return err
	}
	if err := crash(CrashBeforeAppend); err != nil {
		m.mu.Unlock()
		return m.fail(err)
	}
	m.seq++
	rec.Seq = m.seq
	buf := EncodeRecord(rec)
	n, err := m.f.Write(buf)
	m.size += int64(n)
	if err != nil {
		// A partial write leaves a torn tail; recovery truncates it.
		m.mu.Unlock()
		return m.fail(err)
	}
	seq := m.seq
	m.appends.Add(1)
	m.appendBytes.Add(int64(n))
	if err := crash(CrashAfterAppend); err != nil {
		m.mu.Unlock()
		return m.fail(err)
	}
	m.gc.mu.Lock()
	m.gc.appended = seq
	m.gc.mu.Unlock()
	m.mu.Unlock()

	if m.opts.Sync == SyncAlways {
		return m.waitDurable(seq)
	}
	return nil
}

// waitDurable blocks until every record up to seq is fsynced (or the
// manager fails). One waiter at a time runs the fsync; the rest
// piggyback on its result — that is the group commit.
func (m *Manager) waitDurable(seq uint64) error {
	g := &m.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < seq {
		if be := m.broken.Load(); be != nil {
			return be
		}
		if m.closed.Load() {
			return ErrClosed
		}
		if !g.inFlight {
			g.inFlight = true
			target := g.appended
			g.mu.Unlock()
			err := crash(CrashBeforeSync)
			if err == nil {
				if err = m.f.Sync(); err == nil {
					m.fsyncs.Add(1)
					err = crash(CrashAfterSync)
				}
			}
			g.mu.Lock()
			g.inFlight = false
			if err != nil {
				g.mu.Unlock()
				m.fail(err) // broadcasts
				g.mu.Lock()
				continue
			}
			if target > g.synced {
				g.synced = target
			}
			g.cond.Broadcast()
		} else {
			g.cond.Wait()
		}
	}
	return nil
}

// Sync forces everything appended so far onto disk, regardless of the
// sync policy. Used by graceful drain and Close.
func (m *Manager) Sync() error {
	if err := m.check(); err != nil {
		return err
	}
	m.gc.mu.Lock()
	target := m.gc.appended
	done := m.gc.synced >= target
	m.gc.mu.Unlock()
	if done {
		return nil
	}
	return m.waitDurable(target)
}

// RecoveryInfo describes what Open's recovery pass found and did.
type RecoveryInfo struct {
	// FromSnapshot reports whether a checkpoint snapshot was loaded.
	FromSnapshot bool
	// SnapshotSeq is the last sequence the snapshot includes.
	SnapshotSeq uint64
	// Records is how many log records follow the snapshot (the
	// StoreDump's Log).
	Records int
	// SkippedRecords counts valid pre-snapshot records skipped (a crash
	// between checkpoint rename and truncation leaves them behind).
	SkippedRecords int
	// TornTailBytes is how many trailing bytes were discarded as a torn
	// or corrupt tail (0 for a clean log).
	TornTailBytes int64
	// DurationNs is the wall time of the whole recovery pass.
	DurationNs int64
}

// Open opens (creating if needed) the data directory, reads the
// snapshot and the log, and returns a manager positioned to append with
// the snapshot's store and, in its Log, the records after it: the
// engine applies them as it applies a statement's record. A torn or
// corrupt log tail is truncated cleanly; corruption in the middle of the
// log is an error — see CorruptError.
func Open(dir string, opts Options) (*Manager, *StoreDump, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A leftover temp snapshot is an unfinished checkpoint: discard it.
	if err := os.Remove(filepath.Join(dir, snapTmpName)); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}

	var info RecoveryInfo
	dump, snapSeq, err := readSnapshotFile(dir)
	if err != nil {
		return nil, nil, err
	}
	if dump != nil {
		info.FromSnapshot = true
		info.SnapshotSeq = snapSeq
	} else {
		dump = &StoreDump{}
	}

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	res, err := replayLog(f, snapSeq, dump)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	info.Records = len(dump.Log)
	info.SkippedRecords = res.skipped
	info.TornTailBytes = res.tornBytes

	m := &Manager{dir: dir, opts: opts, f: f, seq: max(res.lastSeq, snapSeq), size: res.goodSize}
	m.gc.cond = sync.NewCond(&m.gc.mu)
	m.gc.appended = m.seq
	m.gc.synced = m.seq
	info.DurationNs = int64(time.Since(start))
	m.recovery = info

	if opts.Sync == SyncInterval {
		m.stopSyncer = make(chan struct{})
		m.syncerDone = make(chan struct{})
		go m.runSyncer()
	}
	return m, dump, nil
}

// runSyncer is the SyncInterval background flusher.
func (m *Manager) runSyncer() {
	defer close(m.syncerDone)
	t := time.NewTicker(m.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopSyncer:
			return
		case <-t.C:
			m.gc.mu.Lock()
			dirty := m.gc.appended > m.gc.synced
			target := m.gc.appended
			m.gc.mu.Unlock()
			if dirty {
				m.waitDurable(target) // errors poison the manager
			}
		}
	}
}

// Checkpoint persists dump (which must reflect every record appended so
// far — the caller serializes mutations around this call), atomically
// publishes it, and truncates the log. After a successful checkpoint
// recovery needs only the snapshot plus records appended afterwards.
func (m *Manager) Checkpoint(dump *StoreDump) error {
	if err := m.check(); err != nil {
		return err
	}
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(); err != nil {
		return err
	}
	if err := writeSnapshotFile(m.dir, dump, m.seq); err != nil {
		return m.fail(err)
	}
	// The snapshot is durable and published: the log's records are now
	// redundant. Truncate back to the bare header.
	if err := m.truncateLogLocked(); err != nil {
		return m.fail(err)
	}
	if err := crash(CrashAfterTruncate); err != nil {
		return m.fail(err)
	}
	// Everything up to seq is durable through the snapshot; release any
	// interval-sync backlog so waiters do not fsync truncated bytes.
	m.gc.mu.Lock()
	if m.gc.synced < m.seq {
		m.gc.synced = m.seq
	}
	m.gc.cond.Broadcast()
	m.gc.mu.Unlock()
	m.checkpoints.Add(1)
	ns := int64(time.Since(start))
	m.checkNs.Add(ns)
	m.lastCheckNs.Store(ns)
	return nil
}

// truncateLogLocked resets the log file to header-only. Caller holds mu.
func (m *Manager) truncateLogLocked() error {
	if err := m.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := m.f.Seek(int64(len(walMagic)), 0); err != nil {
		return err
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.fsyncs.Add(1)
	m.size = int64(len(walMagic))
	return nil
}

// Close flushes and closes the log. The manager is unusable afterwards;
// reopen the directory with Open to resume.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.stopSyncer != nil {
		close(m.stopSyncer)
		<-m.syncerDone
	}
	// Best-effort final flush (skip when poisoned: the log may be gone).
	var syncErr error
	if m.broken.Load() == nil {
		m.gc.mu.Lock()
		dirty := m.gc.appended > m.gc.synced
		m.gc.mu.Unlock()
		if dirty {
			if err := m.f.Sync(); err != nil {
				syncErr = err
			} else {
				m.fsyncs.Add(1)
			}
		}
	}
	// Wake anyone still blocked in waitDurable so they observe ErrClosed.
	m.gc.mu.Lock()
	m.gc.cond.Broadcast()
	m.gc.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	return syncErr
}
