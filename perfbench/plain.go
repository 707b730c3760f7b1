package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/netip"
	"time"
)

// plainReduce is the yardstick the end-to-end timings are divided by: a
// plain single-goroutine block-sparse AllReduce, in place on the same
// working buffers the program reduces, built from the standard library
// alone. For every block some worker holds non-zero, each such worker's
// block is encoded to little-endian bytes, decoded and summed, and the sum
// is encoded once and decoded into every worker's buffer; blocks zero at
// every worker are skipped after a scan. On the UDP workload every encoded
// block crosses a loopback socket pair.
//
// It shares no code with the program, so a change to the program moves
// only the program's side of the ratio, while the shared host's speed,
// which drifts by up to 2x over minutes, moves both.
type plainReduce struct {
	pkt, rbuf []byte
	acc       []float32
	nz        []bool
	tx, rx    *net.UDPConn // loopback pair on the UDP workload, else nil
	to        netip.AddrPort
}

func newPlainReduce(workers int, udp bool) (*plainReduce, error) {
	p := &plainReduce{
		pkt:  make([]byte, 4*blockSize),
		rbuf: make([]byte, 4*blockSize),
		acc:  make([]float32, blockSize),
		nz:   make([]bool, workers),
	}
	if !udp {
		return p, nil
	}
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	var err error
	if p.tx, err = net.ListenUDP("udp", lo); err != nil {
		return nil, fmt.Errorf("plain reduction: %w", err)
	}
	if p.rx, err = net.ListenUDP("udp", lo); err != nil {
		p.tx.Close()
		return nil, fmt.Errorf("plain reduction: %w", err)
	}
	p.to = p.rx.LocalAddr().(*net.UDPAddr).AddrPort()
	return p, nil
}

func (p *plainReduce) close() {
	if p.tx != nil {
		p.tx.Close()
		p.rx.Close()
	}
}

// send carries one encoded block: as is over channels, through the
// socket pair on UDP, one datagram in flight.
func (p *plainReduce) send(b []byte) ([]byte, error) {
	if p.tx == nil {
		return b, nil
	}
	if _, err := p.tx.WriteToUDPAddrPort(b, p.to); err != nil {
		return nil, err
	}
	n, _, err := p.rx.ReadFromUDPAddrPort(p.rbuf)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("datagram of %d bytes, sent %d", n, len(b))
	}
	return p.rbuf[:n], nil
}

// reduce replaces every bufs[w] with the sum of all of them, block by
// block. Blocks zero at every worker are left as they are.
func (p *plainReduce) reduce(bufs [][]float32) error {
	if p.rx != nil {
		if err := p.rx.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			return err
		}
	}
	n := len(bufs[0])
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		some := false
		for w, in := range bufs {
			p.nz[w] = false
			for _, v := range in[lo:hi] {
				if v != 0 {
					p.nz[w] = true
					break
				}
			}
			some = some || p.nz[w]
		}
		if !some {
			continue
		}
		acc := p.acc[:hi-lo]
		clear(acc)
		for w, in := range bufs {
			if !p.nz[w] {
				continue
			}
			b, err := p.send(encode(p.pkt, in[lo:hi]))
			if err != nil {
				return err
			}
			for i := range acc {
				acc[i] += math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		enc := encode(p.pkt, acc)
		for _, out := range bufs {
			b, err := p.send(enc)
			if err != nil {
				return err
			}
			for i := range acc {
				out[lo+i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
	}
	return nil
}

// encode writes v into buf as little-endian float32 bits.
func encode(buf []byte, v []float32) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	return buf[:4*len(v)]
}
