// Durable sessions: an engine Session whose catalog and data mutations
// are written through a WAL (internal/wal) before they are
// acknowledged, with checkpoint snapshots bounding recovery time.
//
// The contract with the WAL layer:
//
//   - Every mutation is a wal.Record, applied by Session.apply under
//     dur.mu: validate, append to the log, apply to memory. Log order is
//     apply order, and replay applies each record with the same function
//     that applied it first, so it rebuilds the same store. INSERT
//     re-resolves its target table under dur.mu, so a record can never
//     be logged after the DROP or CREATE OR REPLACE that removed its
//     table.
//   - Mutations validate first and log before they apply: a record is
//     only written for a statement that will apply cleanly, and a
//     failed append changes nothing in memory — reads never observe a
//     change whose statement was reported as failed.
//   - INSERT coerces rows first (storage.CoerceRows), logs exactly the
//     coerced values, then applies with InsertPrepared — the replayed
//     table is byte-for-byte the pre-crash table.
//   - Recovery restores the snapshot and its version, then applies the
//     records after it (wal.StoreDump.Log) before the session logs
//     anything, so no record is logged twice.
//   - A failed append poisons the WAL manager: the statement fails, and
//     so does every later mutation. A session that lost durability
//     cannot quietly keep acknowledging writes.
//   - Checkpoint serializes against mutations on the same dur.mu, so
//     the snapshot it writes is consistent with the log position it
//     records.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/wal"
)

// durability is the session's write-ahead logging state; nil on pure
// in-memory sessions.
type durability struct {
	// mu serializes mutations (apply + log) and checkpoints.
	mu  sync.Mutex
	wal *wal.Manager
}

// NewDurable opens (or creates) a durable session backed by dir:
// recovery loads the checkpoint snapshot into a fresh session and
// applies the log records after it, and every later mutation is logged
// before it is acknowledged.
func NewDurable(dir string, opts wal.Options) (*Session, error) {
	m, dump, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := New()
	if err := s.restoreDump(dump); err != nil {
		m.Close()
		return nil, fmt.Errorf("recovery of %s: %w", dir, err)
	}
	s.dur = &durability{wal: m}
	return s, nil
}

// restoreDump loads a recovered store into the (empty, not yet durable)
// session: the snapshot's tables and views, its version — the pre-crash
// mutation count is the shards' apply cursor — and then each record of
// its Log, applied as the statement that made it applied it.
func (s *Session) restoreDump(dump *wal.StoreDump) error {
	for i := range dump.Tables {
		td := &dump.Tables[i]
		bt, err := s.cat.CreateTable(td.Name, td.Cols, td.Types, false)
		if err != nil {
			return fmt.Errorf("table %s: %w", td.Name, err)
		}
		// Rows were coerced before they were logged; apply them verbatim.
		bt.Data.InsertPrepared(td.Rows)
	}
	for _, vd := range dump.Views {
		q, err := parser.ParseQuery(vd.SQL)
		if err != nil {
			return fmt.Errorf("view %s: %w", vd.Name, err)
		}
		// No bind validation here: views re-bind on use, and view-on-view
		// definitions must restore regardless of dump order.
		if err := s.cat.CreateView(vd.Name, q, true); err != nil {
			return fmt.Errorf("view %s: %w", vd.Name, err)
		}
	}
	s.cat.RestoreVersion(dump.Version)
	for _, rec := range dump.Log {
		if _, err := s.apply(rec); err != nil {
			return fmt.Errorf("log record %d (%s %s): %w", rec.Seq, rec.Type, rec.Name, err)
		}
	}
	return nil
}

// Durable reports whether this session writes through a WAL.
func (s *Session) Durable() bool { return s.dur != nil }

// WALStats returns the durability layer's counters (zero value for
// in-memory sessions).
func (s *Session) WALStats() wal.Stats {
	if s.dur == nil {
		return wal.Stats{}
	}
	return s.dur.wal.StatsSnapshot()
}

// WALRecovery returns what recovery found when the session was opened.
func (s *Session) WALRecovery() wal.RecoveryInfo {
	if s.dur == nil {
		return wal.RecoveryInfo{}
	}
	return s.dur.wal.Recovery()
}

// lockDurable takes the durability mutation lock when the session is
// durable; the returned function releases it. In-memory sessions pay a
// single nil check.
func (s *Session) lockDurable() func() {
	if s.dur == nil {
		return func() {}
	}
	s.dur.mu.Lock()
	return s.dur.mu.Unlock
}

// logMutation appends one mutation record to the WAL. Its caller,
// apply, holds dur.mu (via lockDurable), has validated that the record
// will apply cleanly, and applies it to memory only after this returns
// nil; an error
// here means the change did not become durable — the statement fails
// with nothing applied, and the poisoned manager fails everything after
// it.
func (s *Session) logMutation(rec *wal.Record) error {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal.Append(rec)
}

// buildDump snapshots the full logical store. Callers hold dur.mu, so
// the dump is consistent with the current log position. Objects are
// sorted by name for deterministic snapshot bytes.
func (s *Session) buildDump() *wal.StoreDump {
	dump := &wal.StoreDump{Version: s.cat.Version()}
	tableNames, viewNames := s.cat.Names()
	sort.Strings(tableNames)
	sort.Strings(viewNames)
	for _, name := range tableNames {
		bt, ok := s.cat.Table(name)
		if !ok {
			continue
		}
		dump.Tables = append(dump.Tables, wal.TableDump{
			Name:  bt.Name(),
			Cols:  bt.ColNames(),
			Types: bt.ColTypes(),
			Rows:  bt.Rows(),
		})
	}
	for _, name := range viewNames {
		v, ok := s.cat.View(name)
		if !ok {
			continue
		}
		dump.Views = append(dump.Views, wal.ViewDump{
			Name: v.ViewName,
			SQL:  ast.FormatQuery(v.Query),
		})
	}
	return dump
}

// Checkpoint writes a snapshot of the full store and truncates the WAL,
// bounding the next recovery's replay work. No-op on in-memory
// sessions.
func (s *Session) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	return s.dur.wal.Checkpoint(s.buildDump())
}

// SyncWAL forces everything logged so far onto disk regardless of the
// sync policy (graceful drain calls this). No-op on in-memory sessions.
func (s *Session) SyncWAL() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal.Sync()
}

// CloseDurability flushes and closes the WAL. The session itself stays
// usable for reads; mutations fail once the log is closed.
func (s *Session) CloseDurability() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal.Close()
}

// storageCounters adapts a WAL manager's stats to the metrics section.
func storageCounters(m *wal.Manager) StorageCounters {
	st := m.StatsSnapshot()
	return StorageCounters{
		WALAppends:       st.Appends,
		WALAppendBytes:   st.AppendBytes,
		WALFsyncs:        st.Fsyncs,
		WALBytes:         st.WALBytes,
		WALSeq:           st.Seq,
		WALDurableSeq:    st.DurableSeq,
		Checkpoints:      st.Checkpoints,
		CheckpointNs:     st.CheckpointNs,
		LastCheckpointNs: st.LastCheckpointNs,
		RecoveryNs:       st.RecoveryNs,
		RecoveredRecords: st.RecoveredRecords,
		TornTailBytes:    st.TornTailBytes,
		SyncPolicy:       m.Policy().String(),
	}
}
