package dist

// Scatters counts the shard calls the coordinator's scattered
// statements made.
func Scatters(c *Coordinator) int64 { return c.metrics.scatters.Load() }
