//go:build unix

package fleetd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockStateDir takes the exclusive, non-blocking flock on dir's lock file
// and returns the open file that holds it. The kernel drops the lock when
// the holder dies, so a kill -9 restart takes it again at once.
func lockStateDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrStateDirLocked, dir)
		}
		return nil, fmt.Errorf("fleetd: lock state dir %s: %w", dir, err)
	}
	return f, nil
}
