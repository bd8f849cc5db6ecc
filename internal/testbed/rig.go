package testbed

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// Message aliases the transport message type so testbed consumers can write
// MITM rewrites without importing the transport package directly.
type Message = mqtt.Message

// Rig wires the simulated plant to a real MQTT-style broker over loopback
// TCP, reproducing the paper's testbed architecture (Fig 9): a sensor node
// publishes per-zone load reports, a supervisory controller subscribes and
// publishes fan duties, and — under attack — the sensor traffic passes
// through a man-in-the-middle proxy that forges the reports.
type Rig struct {
	sim    *Simulator
	model  *DynamicsModel
	broker *mqtt.Broker
	proxy  *mqtt.Proxy

	sensor *mqtt.Client // publishes loads (possibly via the MITM proxy)
	ctrl   *mqtt.Client // the controller's broker connection
	loads  <-chan mqtt.Message
	duties <-chan mqtt.Message
}

// loadReport is the sensor node's message.
type loadReport struct {
	Zone  int     `json:"zone"`
	LoadW float64 `json:"loadW"`
}

// dutyCommand is the controller's actuation message.
type dutyCommand struct {
	Zone int     `json:"zone"`
	Duty float64 `json:"duty"`
}

// NewRig boots a broker, an optional MITM proxy with the given rewrite, and
// the two clients. Callers must Close the rig.
func NewRig(sim *Simulator, model *DynamicsModel, rewrite func(mqtt.Message) mqtt.Message) (*Rig, error) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Rig{sim: sim, model: model, broker: broker}
	sensorAddr := broker.Addr()
	if rewrite != nil {
		proxy, err := mqtt.NewProxy("127.0.0.1:0", broker.Addr(), rewrite)
		if err != nil {
			broker.Close()
			return nil, err
		}
		r.proxy = proxy
		sensorAddr = proxy.Addr()
	}
	if r.sensor, err = mqtt.Dial(sensorAddr); err != nil {
		r.Close()
		return nil, err
	}
	if r.ctrl, err = mqtt.Dial(broker.Addr()); err != nil {
		r.Close()
		return nil, err
	}
	if r.loads, err = r.ctrl.Subscribe("testbed/load"); err != nil {
		r.Close()
		return nil, err
	}
	if r.duties, err = r.ctrl.Subscribe("testbed/duty"); err != nil {
		r.Close()
		return nil, err
	}
	// A loopback probe on the controller's own connection: the broker serves
	// one connection's frames in order, so once the probe comes back both
	// subscriptions are live.
	if err := r.ctrl.PublishRaw("testbed/duty", nil); err != nil {
		r.Close()
		return nil, err
	}
	select {
	case m, ok := <-r.duties:
		if ok {
			m.Release()
			return r, nil
		}
	case <-time.After(3 * time.Second):
	}
	r.Close()
	return nil, fmt.Errorf("testbed: subscription probe lost")
}

// Tick runs one supervisory minute: the sensor node publishes each zone's
// believed load, the controller computes and publishes duties, and the
// plant steps with the real loads. Loads shorter than the zone count read
// as zero. Returns the energy consumed (Wh).
func (r *Rig) Tick(actual, believed []float64) (float64, error) {
	zones := r.sim.Zones()
	// Sensor node publishes (through the proxy when attacked).
	for zi := 0; zi < zones; zi++ {
		if err := r.sensor.Publish("testbed/load", loadReport{Zone: zi, LoadW: at(believed, zi)}); err != nil {
			return 0, fmt.Errorf("testbed: publish load: %w", err)
		}
	}
	in := r.sim.NewInputs()
	copy(in.LEDWatts, actual)
	// The controller consumes the per-zone reports and answers with duties.
	deadline := time.After(3 * time.Second)
	for received := 0; received < zones; {
		select {
		case m, ok := <-r.loads:
			if !ok {
				return 0, fmt.Errorf("testbed: load channel closed")
			}
			var rep loadReport
			err := json.Unmarshal(m.Payload, &rep)
			m.Release()
			if err != nil {
				return 0, err
			}
			if rep.Zone < 0 || rep.Zone >= zones {
				return 0, fmt.Errorf("testbed: load report for bad zone %d", rep.Zone)
			}
			duty := 0.0
			if rep.LoadW > 0 {
				duty = clamp01(r.model.DutyForLoad[rep.Zone].Eval(rep.LoadW * 0.85))
			}
			if err := r.ctrl.Publish("testbed/duty", dutyCommand{Zone: rep.Zone, Duty: duty}); err != nil {
				return 0, err
			}
			received++
		case <-deadline:
			return 0, fmt.Errorf("testbed: timed out waiting for load reports")
		}
	}
	// Apply the actuation commands.
	deadline = time.After(3 * time.Second)
	for received := 0; received < zones; {
		select {
		case m, ok := <-r.duties:
			if !ok {
				return 0, fmt.Errorf("testbed: duty channel closed")
			}
			var cmd dutyCommand
			err := json.Unmarshal(m.Payload, &cmd)
			m.Release()
			if err != nil {
				return 0, err
			}
			if cmd.Zone < 0 || cmd.Zone >= zones {
				return 0, fmt.Errorf("testbed: duty command for bad zone %d", cmd.Zone)
			}
			in.FanDuty[cmd.Zone] = cmd.Duty
			received++
		case <-deadline:
			return 0, fmt.Errorf("testbed: timed out waiting for duty commands")
		}
	}
	return r.sim.Step(in), nil
}

// Close tears down clients, proxy, and broker.
func (r *Rig) Close() {
	if r.sensor != nil {
		r.sensor.Close()
	}
	if r.ctrl != nil {
		r.ctrl.Close()
	}
	if r.proxy != nil {
		r.proxy.Close()
	}
	if r.broker != nil {
		r.broker.Close()
	}
}

// ForgeRewrite returns a MITM rewrite forging every load report into a
// single-zone story: zones other than forgeZone report empty; forgeZone
// reports the forged wattage.
func ForgeRewrite(forgeZone int, forgedW float64) func(mqtt.Message) mqtt.Message {
	return func(m mqtt.Message) mqtt.Message {
		if m.Topic != "testbed/load" {
			return m
		}
		var rep loadReport
		if err := json.Unmarshal(m.Payload, &rep); err != nil {
			return m
		}
		if rep.Zone == forgeZone {
			rep.LoadW = forgedW
		} else {
			rep.LoadW = 0
		}
		forged, err := json.Marshal(rep)
		if err != nil {
			return m
		}
		m.Payload = forged
		return m
	}
}

// KitchenForgeRewrite is the validation demo's rewrite: the "everyone
// cooking in the kitchen" story on the canonical layout (kitchen index
// ZoneID Kitchen − 1).
func KitchenForgeRewrite(kitchenIndexW float64) func(mqtt.Message) mqtt.Message {
	return ForgeRewrite(2, kitchenIndexW)
}
