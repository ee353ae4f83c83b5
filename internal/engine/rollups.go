// Rollup lattice wiring: the session owns (at most) one
// rollup.Lattice, installed into the executor settings as the
// RollupProvider. The lattice finds out by itself, at every read, what
// happened to a table's rows (storage.State); the session only tells it
// when a table object is gone. The lattice is derived state: it is
// never written to the WAL, and a session recovered from a crash starts
// with an empty lattice that re-materializes from the recovered store
// on first use.
package engine

import (
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/rollup"
)

// SetRollups enables or disables the materialized rollup lattice.
// Enabling replaces any existing lattice with a fresh one; statements
// already running keep the settings snapshot (and so the lattice) they
// started with. The executor settings and s.rollups change in one
// critical section, so concurrent calls cannot leave the executor
// consulting a lattice the stats, metrics and DDL release do not see.
func (s *Session) SetRollups(on bool) {
	var l *rollup.Lattice
	var p exec.RollupProvider // nil, not a nil *Lattice, when off
	if on {
		l = rollup.New()
		p = l
	}
	s.Update(func(ex *exec.Settings, _ *optimizer.Options) {
		s.rollups.Store(l)
		ex.Rollups = p
	})
}

// RollupsEnabled reports whether a lattice is installed.
func (s *Session) RollupsEnabled() bool { return s.rollups.Load() != nil }

// RollupStats returns the lattice activity counters (zero value when
// rollups are disabled).
func (s *Session) RollupStats() rollup.Counters {
	if l := s.rollups.Load(); l != nil {
		return l.Stats()
	}
	return rollup.Counters{}
}

// rollupDDL releases the lattice nodes of a table object that DROP or
// CREATE OR REPLACE has just detached from its name: no later
// statement can reach them.
func (s *Session) rollupDDL(table string) {
	if l := s.rollups.Load(); l != nil {
		l.NotifyDDL(table)
	}
}
