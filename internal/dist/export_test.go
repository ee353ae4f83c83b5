package dist

import "github.com/measures-sql/msql/msql"

// ShadowPlanCacheStats exposes the plan-cache counters of the
// coordinator's shard-schema mirror to the external tests.
func ShadowPlanCacheStats(c *Coordinator) msql.PlanCacheCounters { return c.shadow.PlanCacheStats() }

// Scatters counts the shard calls the coordinator's scattered
// statements made.
func Scatters(c *Coordinator) int64 { return c.metrics.scatters.Load() }
