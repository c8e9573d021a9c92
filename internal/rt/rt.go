// Package rt provides the primitive types shared by every layer of the
// DPCP-p reproduction: discrete time, task priorities, and identifiers for
// tasks, vertices, processors and resources.
//
// Time is measured in integer nanoseconds. The paper's parameter space
// (critical sections of 15–100 µs, periods of 10–1000 ms) fits comfortably
// in an int64 nanosecond clock; analysis fixed points additionally guard
// against overflow with an explicit horizon.
package rt

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Time is a point in time or a duration, in nanoseconds.
type Time = int64

// Convenience duration units, all expressed in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a sentinel duration larger than any schedulable horizon.
// Fixed-point iterations that exceed their deadline return Infinity.
const Infinity Time = math.MaxInt64 / 4

// FormatTime renders t with an adaptive unit, for traces and reports.
func FormatTime(t Time) string {
	if t >= Infinity {
		return "inf"
	}
	var buf [24]byte
	return string(AppendTime(buf[:0], t))
}

// AppendTime appends FormatTime(t) to dst: t in the largest of s, ms and
// us that divides it exactly, else in ns, or "inf".
func AppendTime(dst []byte, t Time) []byte {
	unit, scale := "ns", Nanosecond
	switch {
	case t >= Infinity:
		return append(dst, "inf"...)
	case t >= Second && t%Second == 0:
		unit, scale = "s", Second
	case t >= Millisecond && t%Millisecond == 0:
		unit, scale = "ms", Millisecond
	case t >= Microsecond && t%Microsecond == 0:
		unit, scale = "us", Microsecond
	}
	return append(strconv.AppendInt(dst, t/scale, 10), unit...)
}

// CeilDiv returns ceil(a/b) for non-negative a and positive b.
func CeilDiv(a, b Time) Time {
	if a < 0 || b <= 0 {
		panic(fmt.Sprintf("rt.CeilDiv: invalid arguments a=%d b=%d", a, b))
	}
	return (a + b - 1) / b
}

// SatAdd adds two non-negative durations, saturating at Infinity so that
// divergent fixed points never wrap around.
func SatAdd(a, b Time) Time {
	if a >= Infinity || b >= Infinity || a > Infinity-b {
		return Infinity
	}
	return a + b
}

// SatMul multiplies two non-negative durations, saturating at Infinity:
// it returns exactly min(a*b, Infinity). Overflow is detected from the full
// 128-bit product rather than by dividing, because SatMul sits inside
// every eta and epsilon term of the fixed-point recurrences.
func SatMul(a, b Time) Time {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(Infinity) {
		return Infinity
	}
	return Time(lo)
}

// Priority is a task base priority. Larger values mean higher priority,
// mirroring the paper's convention that pi_i < pi_h denotes that tau_i has
// lower base priority than tau_h. Priorities are unique within a taskset.
type Priority int

// Higher reports whether p outranks q.
func (p Priority) Higher(q Priority) bool { return p > q }

// TaskID identifies a task within a taskset (dense, 0-based).
type TaskID int

// VertexID identifies a vertex within its task's DAG (dense, 0-based).
type VertexID int

// ResourceID identifies a shared resource (dense, 0-based).
type ResourceID int

// ProcID identifies a physical processor (dense, 0-based).
type ProcID int

// NoProc marks an unassigned processor slot.
const NoProc ProcID = -1
