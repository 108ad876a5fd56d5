package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// stackSample is one CPU-profile sample: its call stack as function
// names, leaf first, and the CPU time it stands for.
type stackSample struct {
	frames []string
	nanos  int64
}

// layers are the simulator and service layers reported by name; every
// other package of the module folds into "other". "bench" is this
// benchmark's own code (HTTP clients, checks) and "runtime" is
// everything with no module frame on its stack.
var layers = []string{
	"workloads", "sgx", "tlb", "cache", "epc", "mee", "enclave", "libos",
	"harness", "serve", "store", "journal", "runtime", "bench", "other",
}

const modulePrefix = "sgxgauge/internal/"

// packageOf returns the profile package a stack belongs to: the
// sgxgauge/internal/<layer> package of its innermost module frame, so
// crypto/sha256 called from the enclave's measurement counts as
// "enclave" and AES-GCM called from the MEE counts as "mee"; "bench"
// when the innermost module frame is this benchmark's; "runtime" when
// no module frame is on the stack.
func packageOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// layerOf maps a package from packageOf onto the reported layers.
func layerOf(pkg string) string {
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

var (
	bootFrame   = "sgxgauge/internal/libos.StartWithTimeline"
	windowFrame = regexp.MustCompile(`^sgxgauge/internal/workloads/[a-z0-9]+\.\(\*Workload\)\.Run$`)
)

// fold is a CPU profile folded by layer and by phase, in seconds.
type fold struct {
	total    float64
	layer    map[string]float64 // reported layer -> seconds
	pkg      map[string]float64 // module package -> seconds (for the breakdown table)
	boot     float64            // under libos.StartWithTimeline
	window   float64            // under a workload's Run
	nSamples int
}

func newFold() *fold {
	return &fold{layer: map[string]float64{}, pkg: map[string]float64{}}
}

// add folds samples into f.
func (f *fold) add(samples []stackSample) {
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		pkg := packageOf(s.frames)
		f.total += sec
		f.pkg[pkg] += sec
		f.layer[layerOf(pkg)] += sec
		f.nSamples++
		for _, fr := range s.frames {
			if fr == bootFrame {
				f.boot += sec
				break
			}
			if windowFrame.MatchString(fr) {
				f.window += sec
				break
			}
		}
	}
}

// decodeProfile parses a gzip-compressed pprof protobuf, as written by
// runtime/pprof.StartCPUProfile, into stack samples weighted by the
// sample value whose unit is nanoseconds.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct{ locs, values []uint64 }
	var (
		strs        []string
		valueUnits  []uint64 // string index of each sample type's unit
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNameIdx = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 1: // sample_type
			return eachField(b, func(t int, v uint64, _ []byte) error {
				if t == 2 {
					valueUnits = append(valueUnits, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(t int, v uint64, b []byte) error {
				switch t {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(t int, v uint64, b []byte) error {
				switch t {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(t int, v uint64, _ []byte) error {
						if t == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(t int, v uint64, _ []byte) error {
				switch t {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	valueIdx := len(valueUnits) - 1
	for i, u := range valueUnits {
		if int(u) < len(strs) && strs[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	name := func(fn uint64) string {
		if idx, ok := funcNameIdx[fn]; ok && int(idx) < len(strs) {
			return strs[idx]
		}
		return "?"
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, name(fn))
			}
		}
		out = append(out, stackSample{frames: frames, nanos: int64(s.values[valueIdx])})
	}
	return out, nil
}

// eachField walks the protobuf message b, calling fn with each field's
// tag and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(tag int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(tag, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which may arrive packed
// (length-delimited data) or as a single value.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
