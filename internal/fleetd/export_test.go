package fleetd

import "sync/atomic"

// killAtCheckpoint arms cfg so that the service booted from it holds the
// worker that journals its nth checkpoint record, and every worker that
// journals a later one, until the service starts closing. reached closes
// once the nth record is on the journal, so a test that then calls
// Close(false) kills the service at that event, with the held homes
// mid-stream.
func killAtCheckpoint(cfg *Config, n int64) (reached <-chan struct{}) {
	var count atomic.Int64
	hit := make(chan struct{})
	cfg.checkpointed = func(s *Service) {
		c := count.Add(1)
		if c == n {
			close(hit)
		}
		if c >= n {
			<-s.Done()
		}
	}
	return hit
}
