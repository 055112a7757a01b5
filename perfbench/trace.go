package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Times are nanoseconds since the run
// started; Parent is 0 for a root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	i := len(t.spans) - 1
	return i + 1, func() { t.spans[i].End = time.Since(t.epoch).Nanoseconds() }
}

// durations returns, per span name, every closed span's duration in
// seconds.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e9)
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// frameCap bounds the frames sampled per message type.
const frameCap = 256

// frameSample keeps copies of the first frameCap frames of each message
// type a workload puts on the radio. Trace hooks see packets that alias
// engine buffers, so every kept frame is a copy.
type frameSample struct {
	byType map[wire.Type][][]byte
}

func newFrameSample() *frameSample {
	return &frameSample{byType: make(map[wire.Type][][]byte)}
}

func (f *frameSample) add(pkt []byte) {
	if len(pkt) == 0 || len(f.byType[wire.Type(pkt[0])]) >= frameCap {
		return
	}
	t := wire.Type(pkt[0])
	f.byType[t] = append(f.byType[t], append([]byte(nil), pkt...))
}

// opened is a sampled frame that opened under the key it names.
type opened struct {
	pkt, body []byte
	frame     *wire.Frame
	sealer    *crypt.Sealer
	aad       []byte
}

// layerCosts times the public crypt and wire calls on the sampled
// frames and the keys that sealed them: Km for setup messages, the
// sending cluster's key for everything else.
type layerCosts struct {
	newSealer, deriveKey, open, seal, parse float64 // ns per call
}

func measureLayerCosts(f *frameSample, auth *core.Authority) layerCosts {
	km := auth.MaterialFor(0).Master
	keyFor := func(fr *wire.Frame) crypt.Key {
		if fr.Type == wire.THello || fr.Type == wire.TLinkAdvert {
			return km
		}
		return auth.ClusterKeyOf(fr.CID)
	}
	var types []wire.Type
	for t := range f.byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	sealers := make(map[crypt.Key]*crypt.Sealer)
	var keys []crypt.Key
	var all, data []opened
	for _, t := range types {
		for _, pkt := range f.byType[t] {
			fr, err := wire.ParseFrame(pkt)
			if err != nil {
				continue
			}
			k := keyFor(fr)
			sl, ok := sealers[k]
			if !ok {
				sl = crypt.NewSealer(k)
				sealers[k] = sl
				keys = append(keys, k)
			}
			aad := core.FrameAAD(fr.Type, fr.CID)
			body, ok := sl.AppendOpen(nil, fr.Nonce, aad, fr.Payload)
			if !ok {
				continue
			}
			o := opened{pkt: pkt, body: body, frame: fr, sealer: sl, aad: aad}
			all = append(all, o)
			if t == wire.TData {
				data = append(data, o)
			}
		}
	}
	var lc layerCosts
	if len(keys) > 0 {
		lc.newSealer = nsPerOp(len(keys), func(i int) { crypt.NewSealer(keys[i]) })
		lc.deriveKey = nsPerOp(len(keys), func(i int) { crypt.DeriveKey(keys[i], crypt.LabelMAC) })
	}
	if len(all) > 0 {
		buf := make([]byte, 0, 1024)
		lc.open = nsPerOp(len(all), func(i int) {
			o := &all[i]
			buf, _ = o.sealer.AppendOpen(buf[:0], o.frame.Nonce, o.aad, o.frame.Payload)
		})
		lc.seal = nsPerOp(len(all), func(i int) {
			o := &all[i]
			buf = o.sealer.AppendSeal(buf[:0], o.frame.Nonce, o.aad, o.body)
		})
	}
	if len(data) > 0 {
		var d wire.Data
		lc.parse = nsPerOp(len(data), func(i int) {
			if _, err := wire.ParseFrame(data[i].pkt); err == nil {
				_ = wire.UnmarshalDataInto(&d, data[i].body)
			}
		})
	}
	return lc
}

// nsPerOp times op over inputs 0..n-1 in rounds of about 20ms and
// returns the median round's nanoseconds per call.
func nsPerOp(n int, op func(i int)) float64 {
	const rounds = 7
	per := 1
	for {
		t0 := time.Now()
		for r := 0; r < per; r++ {
			for i := 0; i < n; i++ {
				op(i)
			}
		}
		if time.Since(t0) > 20*time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 2
	}
	samples := make([]float64, rounds)
	for k := range samples {
		t0 := time.Now()
		for r := 0; r < per; r++ {
			for i := 0; i < n; i++ {
				op(i)
			}
		}
		samples[k] = float64(time.Since(t0).Nanoseconds()) / float64(per*n)
	}
	return median(samples)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
