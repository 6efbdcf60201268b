package xtc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Scanner walks a concatenated frame stream and yields each frame's complete
// encoded bytes *without* decoding coordinates. Framing needs only the magic,
// the atom count, and (for large compressed frames) the blob length, so a
// scan is orders of magnitude cheaper than a decode — which is what lets
// ParallelReader decouple cheap framing from expensive decompression and fan
// the decode out across cores.
type Scanner struct {
	br     *bufio.Reader
	buf    []byte
	natoms int
	frames int
}

// NewScanner returns a Scanner over r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{br: bufio.NewReaderSize(r, 1<<16)}
}

// fillStep bounds how far fill grows the buffer beyond the bytes that have
// actually arrived, so a header claiming a huge frame costs memory only as
// its bytes are read.
const fillStep = 1 << 20

// fill extends buf by n bytes read from the stream. On a read error the
// buffer is returned at its original length, so callers accumulating many
// frames keep every complete frame scanned so far.
func (s *Scanner) fill(buf []byte, n int) ([]byte, error) {
	old := len(buf)
	for len(buf) < old+n {
		have := len(buf)
		step := min(old+n-have, fillStep)
		if cap(buf) < have+step {
			// Amortized growth: an exact-size allocation per frame would
			// make multi-frame batch accumulation quadratic.
			nb := make([]byte, have, max(2*cap(buf), have+step))
			copy(nb, buf)
			buf = nb
		}
		buf = buf[:have+step]
		if _, err := io.ReadFull(s.br, buf[have:]); err != nil {
			return buf[:old], err
		}
	}
	return buf, nil
}

// AppendNext appends the next frame's encoded bytes to dst and returns the
// extended buffer. On any error dst is returned unchanged (no partial frame
// bytes), so a batching caller keeps every frame appended before the error.
// Errors match Next: io.EOF at a clean end of stream, io.ErrUnexpectedEOF
// for a truncated frame. This is the zero-copy feed for batched parallel
// decode — frames land directly in the caller's batch blob with no
// intermediate per-frame copy.
func (s *Scanner) AppendNext(dst []byte) ([]byte, error) {
	head, err := s.br.Peek(4)
	if err != nil {
		if err == io.EOF {
			if len(head) == 0 {
				return dst, io.EOF
			}
			// A 1-3 byte tail is a torn frame header, not a clean end.
			return dst, io.ErrUnexpectedEOF
		}
		return dst, err
	}
	magic := int32(binary.BigEndian.Uint32(head))
	base := len(dst)
	switch magic {
	case MagicCompressed:
		whole, err := s.fill(dst, headerLen)
		if err != nil {
			return dst[:base], unexpected(err)
		}
		natoms := int(int32(binary.BigEndian.Uint32(whole[base+4:])))
		if natoms < 0 {
			return dst[:base], fmt.Errorf("xtc: negative atom count %d", natoms)
		}
		s.natoms = natoms
		if natoms <= smallAtomThreshold {
			if whole, err = s.fill(whole, natoms*12); err != nil {
				return dst[:base], unexpected(err)
			}
			s.frames++
			return whole, nil
		}
		// precision + minint[3] + sizeint[3] + smallidx + bloblen
		if whole, err = s.fill(whole, 4*9); err != nil {
			return dst[:base], unexpected(err)
		}
		blobLen := int(binary.BigEndian.Uint32(whole[base+headerLen+32:]))
		padded := blobLen + (4-blobLen%4)%4
		if whole, err = s.fill(whole, padded); err != nil {
			return dst[:base], unexpected(err)
		}
		s.frames++
		return whole, nil

	case MagicRaw:
		whole, err := s.fill(dst, headerLen)
		if err != nil {
			return dst[:base], unexpected(err)
		}
		natoms := int(int32(binary.BigEndian.Uint32(whole[base+4:])))
		if natoms < 0 {
			return dst[:base], fmt.Errorf("xtc: negative atom count %d", natoms)
		}
		s.natoms = natoms
		if whole, err = s.fill(whole, natoms*12); err != nil {
			return dst[:base], unexpected(err)
		}
		s.frames++
		return whole, nil

	default:
		return dst, fmt.Errorf("%w: %d", ErrBadMagic, magic)
	}
}

// Next returns the next frame's encoded bytes. The slice is valid until the
// following Next call. It returns io.EOF cleanly at the end of the stream
// and io.ErrUnexpectedEOF for a truncated frame.
func (s *Scanner) Next() ([]byte, error) {
	buf, err := s.AppendNext(s.buf[:0])
	if err != nil {
		return nil, err
	}
	s.buf = buf
	return buf, nil
}

// NAtoms returns the atom count of the most recently scanned frame.
func (s *Scanner) NAtoms() int { return s.natoms }

// Frames returns the number of frames scanned so far.
func (s *Scanner) Frames() int { return s.frames }
