//go:build !unix

package fleetd

import "os"

// lockStateDir is a no-op where flock is unavailable.
func lockStateDir(string) (*os.File, error) { return nil, nil }
