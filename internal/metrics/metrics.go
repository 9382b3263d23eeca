// Package metrics implements the system-level multiprogram performance
// metrics the paper evaluates with (Section 5, following Eyerman & Eeckhout,
// IEEE Micro 2008):
//
//	STP  = sum_i CPI_ST(i) / CPI_MT(i)     (higher is better; equals the
//	       weighted speedup of Snavely & Tullsen)
//	ANTT = (1/n) sum_i CPI_MT(i) / CPI_ST(i) (lower is better; the
//	       reciprocal of Luo et al.'s hmean metric)
//
// When averaging across workloads the paper follows John (2006): harmonic
// mean for STP, arithmetic mean for ANTT. Both helpers are provided here.
package metrics

import "fmt"

// ThreadPerf is one program's single-threaded and multithreaded performance,
// expressed in cycles per instruction at matched instruction counts.
type ThreadPerf struct {
	CPIST float64 // single-threaded CPI after the same instruction count
	CPIMT float64 // multithreaded CPI in the workload under study
}

// STP returns the system throughput of a multiprogram workload.
func STP(threads []ThreadPerf) float64 {
	var s float64
	for _, t := range threads {
		if t.CPIMT > 0 {
			s += t.CPIST / t.CPIMT
		}
	}
	return s
}

// ANTT returns the average normalized turnaround time of a workload.
func ANTT(threads []ThreadPerf) float64 {
	if len(threads) == 0 {
		return 0
	}
	var s float64
	for _, t := range threads {
		if t.CPIST > 0 {
			s += t.CPIMT / t.CPIST
		}
	}
	return s / float64(len(threads))
}

// HarmonicMean returns the harmonic mean of xs (the paper's rule for
// averaging STP across workloads). It panics on non-positive inputs, which
// always indicate a broken experiment.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("metrics: harmonic mean of non-positive value %g", x))
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ArithmeticMean returns the arithmetic mean of xs (the paper's rule for
// averaging ANTT across workloads).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelativeChange returns (b-a)/a, used for "x% better than ICOUNT" style
// comparisons.
func RelativeChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
