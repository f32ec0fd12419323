//go:build race

package neat

// The race detector drops pooled objects on purpose, so allocation
// counts that pass through encoding/json's encoder pool vary under it.
func init() { raceEnabled = true }
