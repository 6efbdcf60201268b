package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuPackages are the packages the traced run reports self-CPU shares for.
// gc and syscall are runtime activities rather than packages: a sample
// counts as gc when any frame of its stack is a garbage-collector entry
// point, and as syscall when its leaf is in a syscall package.
var cpuPackages = []string{"xtc", "xdr", "core", "plfs", "placement", "rpc", "vfs", "serve", "vmd", "stream", "pdb", "crc32", "gc", "syscall"}

// cpuShares parses a CPU profile (gzipped profile.proto) and returns each
// reported package's share of the samples.
func cpuShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		var names []string
		for _, id := range s.locs {
			names = append(names, p.locFuncs[id]...)
		}
		counts[classify(names)] += n
	}
	out := map[string]float64{}
	for _, pkg := range cpuPackages {
		if total > 0 {
			out[pkg] = float64(counts[pkg]) / float64(total)
		} else {
			out[pkg] = 0
		}
	}
	return out, nil
}

// classify names the bucket a sample's stack (leaf first) falls in.
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return ""
	}
	pkg := funcPackage(stack[0])
	switch pkg {
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall":
		return "syscall"
	case "hash/crc32":
		return "crc32"
	}
	return strings.TrimPrefix(pkg, "repro/internal/")
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/xtc.(*Reader).ReadFrame".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of profile.proto the share computation needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// protoFields walks one protobuf message, calling fn for each field with
// its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// packedOrSingle appends a repeated varint field that may be packed.
func packedOrSingle(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	var strs []string
	funcName := map[uint64]int64{}    // function id -> string index
	locLines := map[uint64][]uint64{} // location id -> function ids
	var samples []profSample
	err := protoFields(b, func(field int, v uint64, data []byte) error {
		var err error
		switch field {
		case 2: // sample
			var s profSample
			err = protoFields(data, func(f int, v uint64, d []byte) error {
				var e error
				switch f {
				case 1:
					s.locs, e = packedOrSingle(s.locs, v, d)
				case 2:
					var vals []uint64
					vals, e = packedOrSingle(nil, v, d)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return e
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err = protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}
