// Package ptm models the ARM CoreSight Program Trace Macrocell: the
// on-core unit that observes retired branches and emits a compressed packet
// stream describing the program's control flow. The packet protocol here is
// PFT-flavoured rather than register-exact ETMv3 — it keeps every property
// the RTAD evaluation depends on (byte-granular variable-length packets,
// prefix-compressed branch addresses, taken/not-taken atoms, periodic
// synchronisation, an internal FIFO whose drain threshold delays visibility
// of trace data, and a branch-broadcast mode that forces full addresses for
// all taken branches) while remaining small enough to verify exhaustively.
//
// Packet format (first byte classifies the packet):
//
//	0x00                 a-sync component; alignment sync is 0x00 ×5 then 0x80
//	0x80                 a-sync terminator
//	0x08                 i-sync: 4 little-endian address bytes + 1 info byte
//	0x04                 timestamp: 4 little-endian cycle-count bytes
//	0x10                 overflow marker: trace bytes were lost upstream
//	bit0 = 1             branch-address packet (1–5 address bytes):
//	                       byte0:  [C][a4..a0][E][1]
//	                       byteK:  [C][a 7 bits]          (while C of previous = 1)
//	                     address value is target>>1 assembled low-first;
//	                     chunks above the emitted ones are inherited from the
//	                     previous branch address (prefix compression).
//	                     If E=1 an exception byte [1110|kind] follows the last
//	                     address byte (used for supervisor-call entries).
//	bits[1:0] = 10       atom packet: [A3 A2 A1 A0][C1 C0][1][0] carries
//	                     count = C+1 atoms, A0 oldest; atom 1 = taken.
package ptm

import (
	"fmt"

	"rtad/internal/cpu"
)

// Header bytes and field masks.
const (
	hdrAsyncZero = 0x00
	hdrAsyncTerm = 0x80
	hdrISync     = 0x08
	hdrTimestamp = 0x04
	hdrOverflow  = 0x10

	branchMarkerBit = 0x01
	branchExcBit    = 0x02
	continuationBit = 0x80
	atomMarker      = 0x02 // bits[1:0] == 10
	excByteBase     = 0xE0
	maxAtomsPerByte = 4
	maxBranchBytes  = 5
	asyncZeroCount  = 5
)

// PacketType classifies a decoded packet.
type PacketType uint8

// Packet types produced by the decoder.
const (
	PktASync PacketType = iota
	PktISync
	PktBranch
	PktAtoms
	PktTimestamp
	PktOverflow
)

var pktNames = []string{"a-sync", "i-sync", "branch", "atoms", "timestamp", "overflow"}

// String names the packet type.
func (t PacketType) String() string {
	if int(t) < len(pktNames) {
		return pktNames[t]
	}
	return fmt.Sprintf("pkt(%d)", uint8(t))
}

// Packet is one decoded trace packet.
type Packet struct {
	Type  PacketType
	Addr  uint32   // PktBranch target, PktISync current address
	Kind  cpu.Kind // PktBranch with exception byte (syscalls); else KindDirect
	Exc   bool     // PktBranch carried an exception byte
	Atoms []bool   // PktAtoms payload, oldest first (true = taken)
	TS    uint32   // PktTimestamp payload
	Info  byte     // PktISync info byte
}

// A branch packet carries v = addr>>1 in chunks, low first: 5 bits in the
// first byte, then 7-bit groups. 5+7+7+7+5 covers the 31-bit value.
const numChunks = 5
