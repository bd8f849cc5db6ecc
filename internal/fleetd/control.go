package fleetd

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// Control-plane topics. Admin requests arrive on fleet/admin/<verb>; the
// service answers on the request's reply topic; metrics snapshots are
// broadcast on fleet/metrics.
const (
	adminFilter  = "fleet/admin/+"
	adminPrefix  = "fleet/admin/"
	MetricsTopic = "fleet/metrics"
	replyPrefix  = "fleet/reply/"
)

// Admin verbs (the last topic segment of an admin request).
const (
	VerbAdd       = "add"
	VerbRemove    = "remove"
	VerbPause     = "pause"
	VerbResume    = "resume"
	VerbDrain     = "drain"
	VerbRehydrate = "rehydrate"
	VerbStatus    = "status"
	VerbStop      = "stop"
	verbProbe     = "probe" // internal: subscription-registration handshake
)

// AddRequest asks the service to admit new homes. The service's JobFactory
// interprets it — the service itself is scenario-agnostic.
type AddRequest struct {
	// Scenarios lists scenario specs in the core grammar (ARAS names or
	// synth:ZxO[@SEED]).
	Scenarios []string `json:"scenarios,omitempty"`
	// Synth, when > 0, adds a synthetic fleet of this size rooted at Seed.
	Synth int    `json:"synth,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Days bounds each home's stream length.
	Days int `json:"days"`
	// Defend enables online detection; Attack applies the paper's
	// injection schedule.
	Defend bool `json:"defend,omitempty"`
	Attack bool `json:"attack,omitempty"`
	// Prefix namespaces the new homes' IDs (IDs must be fleet-unique, so
	// repeated adds of the same scenarios need distinct prefixes).
	Prefix string `json:"prefix,omitempty"`
}

// Request is the admin-request envelope. The verb rides in the topic
// (fleet/admin/<verb>); Reply names the topic the response is published on.
type Request struct {
	ID    string `json:"id"`
	Reply string `json:"reply"`
	// Home addresses per-home verbs (remove/pause/resume).
	Home string `json:"home,omitempty"`
	// Shard addresses per-shard verbs (drain/rehydrate).
	Shard *int `json:"shard,omitempty"`
	// Add carries the payload of an add request.
	Add *AddRequest `json:"add,omitempty"`
}

// Response is the admin-response envelope.
type Response struct {
	ID    string `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Added counts the homes an add request admitted.
	Added int `json:"added,omitempty"`
	// Metrics carries the snapshot a status request asked for.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// controlPlane is the service side of the admin bus: one subscriber
// dispatching fleet/admin/+ requests, plus the periodic metrics publisher.
type controlPlane struct {
	svc    *Service
	client *mqtt.Client
	quit   chan struct{}
	wg     sync.WaitGroup
}

func newControlPlane(svc *Service, broker string, every time.Duration) (*controlPlane, error) {
	// The control plane rides through broker restarts: the session redials
	// and re-registers the admin subscription itself, so the serve loop
	// below survives an outage.
	client, err := mqtt.DialSession(broker)
	if err != nil {
		return nil, err
	}
	ch, err := client.Subscribe(adminFilter)
	if err != nil {
		client.Close()
		return nil, err
	}
	cp := &controlPlane{svc: svc, client: client, quit: make(chan struct{})}
	ready := make(chan struct{})
	cp.wg.Add(1)
	go cp.serve(ch, ready)
	// Loopback probe: the broker processes this connection's frames in
	// order, so seeing the probe proves the admin subscription is live
	// before NewService returns.
	if err := client.Publish(adminPrefix+verbProbe, Request{ID: verbProbe}); err != nil {
		client.Close()
		cp.wg.Wait()
		return nil, err
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		client.Close()
		cp.wg.Wait()
		return nil, fmt.Errorf("fleetd: control-plane probe lost")
	}
	cp.wg.Add(1)
	go cp.publishMetrics(every)
	return cp, nil
}

// serve dispatches admin requests serially in arrival order, handing each
// delivered payload back to the bus once it is decoded.
func (cp *controlPlane) serve(ch <-chan mqtt.Message, ready chan<- struct{}) {
	defer cp.wg.Done()
	probed := false
	for msg := range ch {
		verb := strings.TrimPrefix(msg.Topic, adminPrefix)
		var req Request
		err := json.Unmarshal(msg.Payload, &req)
		msg.Release()
		if verb == verbProbe {
			if !probed {
				probed = true
				close(ready)
			}
			continue
		}
		if err != nil || req.Reply == "" {
			continue // malformed or fire-and-forget: nothing to answer
		}
		resp := cp.handle(verb, &req)
		resp.ID = req.ID
		// A dead reply topic only fails this response; the plane keeps
		// serving.
		_ = cp.client.Publish(req.Reply, resp)
	}
}

// handle executes one admin verb against the service.
func (cp *controlPlane) handle(verb string, req *Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	needShard := func() (int, error) {
		if req.Shard == nil {
			return 0, fmt.Errorf("fleetd: %s request missing shard", verb)
		}
		return *req.Shard, nil
	}
	switch verb {
	case VerbAdd:
		if req.Add == nil {
			return fail(fmt.Errorf("fleetd: add request missing payload"))
		}
		// AddSpec journals the spec to the manifest (when the service is
		// durable) before admitting, so control-plane adds survive a crash.
		n, err := cp.svc.AddSpec(*req.Add)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Added: n}
	case VerbRemove:
		if err := cp.svc.Remove(req.Home); err != nil {
			return fail(err)
		}
	case VerbPause:
		if err := cp.svc.Pause(req.Home); err != nil {
			return fail(err)
		}
	case VerbResume:
		if err := cp.svc.Resume(req.Home); err != nil {
			return fail(err)
		}
	case VerbDrain:
		i, err := needShard()
		if err == nil {
			err = cp.svc.DrainShard(i)
		}
		if err != nil {
			return fail(err)
		}
	case VerbRehydrate:
		i, err := needShard()
		if err == nil {
			err = cp.svc.RehydrateShard(i)
		}
		if err != nil {
			return fail(err)
		}
	case VerbStatus:
		snap := cp.svc.Snapshot()
		return Response{OK: true, Metrics: &snap}
	case VerbStop:
		// Acknowledge first, then trip Done; the embedder owns the actual
		// Close so in-flight state is persisted on its terms.
		cp.svc.stop.Do(func() { close(cp.svc.done) })
	default:
		return fail(fmt.Errorf("fleetd: unknown admin verb %q", verb))
	}
	return Response{OK: true}
}

// publishMetrics broadcasts snapshots on the metrics topic until close.
// A failed publish skips that tick instead of killing the publisher: with
// session resume on the control-plane client, a broker restart is a
// transient the next tick rides out, not a terminal condition.
func (cp *controlPlane) publishMetrics(every time.Duration) {
	defer cp.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-cp.quit:
			return
		case <-tick.C:
			_ = cp.client.Publish(MetricsTopic, cp.svc.Snapshot())
		}
	}
}

func (cp *controlPlane) close() {
	close(cp.quit)
	cp.client.Close()
	cp.wg.Wait()
}

// adminSeq uniquifies reply topics and request IDs across a process's
// admin clients.
var adminSeq atomic.Int64

// Admin is a control-plane client: it speaks the fleet/admin/+ protocol
// over one broker connection, matching responses to requests on a private
// reply topic. Safe for concurrent use.
type Admin struct {
	client *mqtt.Client
	reply  string
	seq    atomic.Int64
	// Timeout bounds each request round-trip; zero defaults to 10s.
	Timeout time.Duration

	mu      sync.Mutex
	pending map[string]chan Response
	closed  bool
}

// NewAdmin connects an admin client to the service's broker. The
// connection is a session (mqtt.DialSession): it redials, re-establishing
// the private reply-topic subscription (and any Watch feed) after a broker
// restart — requests issued while the broker is down fail fast with a
// disconnected error and succeed again after resume. The reply
// subscription and every request travel on this one connection, which the
// broker serves in order, so the subscription is registered before the
// first request is routed.
func NewAdmin(broker string) (*Admin, error) {
	client, err := mqtt.DialSession(broker)
	if err != nil {
		return nil, err
	}
	a := &Admin{
		client:  client,
		reply:   fmt.Sprintf("%sc%d-%d", replyPrefix, adminSeq.Add(1), time.Now().UnixNano()),
		pending: make(map[string]chan Response),
	}
	ch, err := client.Subscribe(a.reply)
	if err != nil {
		client.Close()
		return nil, err
	}
	go a.dispatch(ch)
	return a, nil
}

// dispatch routes responses to their waiting requests.
func (a *Admin) dispatch(ch <-chan mqtt.Message) {
	for msg := range ch {
		var resp Response
		err := json.Unmarshal(msg.Payload, &resp)
		msg.Release()
		if err != nil {
			continue
		}
		a.mu.Lock()
		waiter := a.pending[resp.ID]
		delete(a.pending, resp.ID)
		a.mu.Unlock()
		if waiter != nil {
			waiter <- resp
		}
	}
	// Connection closed: fail everything still waiting.
	a.mu.Lock()
	a.closed = true
	for id, waiter := range a.pending {
		delete(a.pending, id)
		close(waiter)
	}
	a.mu.Unlock()
}

// do performs one request round-trip.
func (a *Admin) do(verb string, req Request) (Response, error) {
	req.ID = fmt.Sprintf("r%d", a.seq.Add(1))
	req.Reply = a.reply
	waiter := make(chan Response, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return Response{}, fmt.Errorf("fleetd: admin connection closed")
	}
	a.pending[req.ID] = waiter
	a.mu.Unlock()
	if err := a.client.Publish(adminPrefix+verb, req); err != nil {
		a.mu.Lock()
		delete(a.pending, req.ID)
		a.mu.Unlock()
		return Response{}, err
	}
	timeout := a.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	select {
	case resp, ok := <-waiter:
		if !ok {
			return Response{}, fmt.Errorf("fleetd: admin connection closed")
		}
		if resp.Error != "" {
			return resp, fmt.Errorf("fleetd: %s: %s", verb, resp.Error)
		}
		return resp, nil
	case <-time.After(timeout):
		a.mu.Lock()
		delete(a.pending, req.ID)
		a.mu.Unlock()
		return Response{}, fmt.Errorf("fleetd: %s request timed out", verb)
	}
}

// Add admits homes described by the request; it returns how many.
func (a *Admin) Add(req AddRequest) (int, error) {
	resp, err := a.do(VerbAdd, Request{Add: &req})
	return resp.Added, err
}

// Remove, Pause, and Resume address one home.
func (a *Admin) Remove(homeID string) error {
	_, err := a.do(VerbRemove, Request{Home: homeID})
	return err
}

func (a *Admin) Pause(homeID string) error {
	_, err := a.do(VerbPause, Request{Home: homeID})
	return err
}

func (a *Admin) Resume(homeID string) error {
	_, err := a.do(VerbResume, Request{Home: homeID})
	return err
}

// Drain and Rehydrate address one shard.
func (a *Admin) Drain(shard int) error {
	_, err := a.do(VerbDrain, Request{Shard: &shard})
	return err
}

func (a *Admin) Rehydrate(shard int) error {
	_, err := a.do(VerbRehydrate, Request{Shard: &shard})
	return err
}

// Status fetches a live metrics snapshot (shard gauges included).
func (a *Admin) Status() (Snapshot, error) {
	resp, err := a.do(VerbStatus, Request{})
	if err != nil {
		return Snapshot{}, err
	}
	if resp.Metrics == nil {
		return Snapshot{}, fmt.Errorf("fleetd: status response missing metrics")
	}
	return *resp.Metrics, nil
}

// Stop asks the service to shut down (its embedder decides persistence).
func (a *Admin) Stop() error {
	_, err := a.do(VerbStop, Request{})
	return err
}

// Watch subscribes to the service's metrics broadcast on this connection.
// The channel closes when the connection does.
func (a *Admin) Watch() (<-chan Snapshot, error) {
	ch, err := a.client.Subscribe(MetricsTopic)
	if err != nil {
		return nil, err
	}
	out := make(chan Snapshot, 4)
	go func() {
		defer close(out)
		for msg := range ch {
			var snap Snapshot
			err := json.Unmarshal(msg.Payload, &snap)
			msg.Release()
			if err == nil {
				out <- snap
			}
		}
	}()
	return out, nil
}

// Close tears the admin connection down.
func (a *Admin) Close() error { return a.client.Close() }
