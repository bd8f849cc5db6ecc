package aras

import (
	"bytes"
	"strings"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
)

// FuzzReadCSV drives the trace decoder with arbitrary input against both
// house shapes. ReadCSV must never panic; on success the decoded trace must
// be structurally sound (declared shape allocated, zones/activities stored
// as written), and a valid round-trip must re-encode losslessly.
func FuzzReadCSV(f *testing.F) {
	houseA := home.MustHouse("A")
	houseB := home.MustHouse("B")

	// Seed: a genuine 2-day trace of house A.
	tr, err := Generate(houseA, GeneratorConfig{Days: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := tr.WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())

	// Seeds for the error paths: truncated header, wrong house, bad counts,
	// short rows, out-of-range day/slot, malformed numbers and masks.
	f.Add("")
	f.Add("house,A\n")
	f.Add("house,B,days,2,occupants,2,appliances,13\n")
	f.Add("house,A,days,x,occupants,2,appliances,13\n")
	f.Add("house,A,days,2,occupants,3,appliances,13\n")
	f.Add("house,A,days,2,occupants,2,appliances,13\n0,0,1,9\n")
	f.Add("house,A,days,2,occupants,2,appliances,13\n9,0,1,9,2,10,0\n")
	f.Add("house,A,days,2,occupants,2,appliances,13\n0,1441,1,9,2,10,0\n")
	f.Add("house,A,days,2,occupants,2,appliances,13\n0,0,z,9,2,10,0\n")
	f.Add("house,A,days,2,occupants,2,appliances,13\n0,0,1,9,2,10,zz\n")
	f.Add("house,A,days,1,occupants,2,appliances,13\n0,0,1,9,2,10,1fff\n")
	// IDs outside the house's tables, which a byte-wide ID would wrap.
	f.Add("house,A,days,1,occupants,2,appliances,13\n0,0,300,9,2,10,0\n")
	f.Add("house,A,days,1,occupants,2,appliances,13\n0,0,1,9,2,283,0\n")

	f.Fuzz(func(t *testing.T, data string) {
		for _, h := range []*home.House{houseA, houseB} {
			got, err := ReadCSV(strings.NewReader(data), h)
			if err != nil {
				continue
			}
			// Successful decodes must be structurally sound.
			if len(got.Days) != len(got.Weather) {
				t.Fatalf("days/weather mismatch: %d vs %d", len(got.Days), len(got.Weather))
			}
			for d := range got.Days {
				if len(got.Days[d].Zone) != len(h.Occupants) || len(got.Days[d].Appliance) != len(h.Appliances) {
					t.Fatalf("day %d shape: %d occupants, %d appliances", d, len(got.Days[d].Zone), len(got.Days[d].Appliance))
				}
				for o := range got.Days[d].Zone {
					if len(got.Days[d].Zone[o]) != SlotsPerDay || len(got.Days[d].Act[o]) != SlotsPerDay {
						t.Fatalf("day %d occupant %d: short slot arrays", d, o)
					}
					for s, z := range got.Days[d].Zone[o] {
						if a := got.Days[d].Act[o][s]; z < 0 || int(z) >= len(h.Zones) || a < 0 || a >= home.NumActivities {
							t.Fatalf("day %d occupant %d slot %d: zone %d, activity %d outside the house's tables", d, o, s, z, a)
						}
					}
				}
			}
			// A decodable trace must re-encode and decode to the same bytes.
			var re bytes.Buffer
			if err := got.WriteCSV(&re); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := ReadCSV(bytes.NewReader(re.Bytes()), h)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			var re2 bytes.Buffer
			if err := again.WriteCSV(&re2); err != nil {
				t.Fatalf("re-re-encode: %v", err)
			}
			if !bytes.Equal(re.Bytes(), re2.Bytes()) {
				t.Fatal("round-trip is not a fixpoint")
			}
		}
	})
}
