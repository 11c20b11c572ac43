package stats

import "math"

// Regression holds the slope of an ordinary least squares fit
// y = a + Slope*x, its t-test and the fit's R².
type Regression struct {
	N      int
	Slope  float64
	TStat  float64 // t statistic for H0: slope == 0
	PValue float64 // two-sided p-value with N-2 degrees of freedom
	R2     float64
}

// LinearFit fits y = a + b*x by ordinary least squares and runs a two-sided
// t-test on the slope, as the paper does for Figure 14 ("the increase rate is
// statistically significant, p-value less than 0.001").
func LinearFit(x, y []float64) (Regression, error) {
	if len(x) != len(y) {
		return Regression{}, ErrShortSample
	}
	n := len(x)
	if n < 3 {
		return Regression{}, ErrShortSample
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{}, ErrShortSample
	}
	b := sxy / sxx
	a := my - b*mx

	var sse float64
	for i := 0; i < n; i++ {
		r := y[i] - (a + b*x[i])
		sse += r * r
	}
	df := float64(n - 2)
	sigma2 := sse / df
	se := math.Sqrt(sigma2 / sxx)

	reg := Regression{N: n, Slope: b}
	if syy > 0 {
		reg.R2 = 1 - sse/syy
	} else {
		reg.R2 = 1
	}
	if se == 0 {
		// Perfect fit: infinitely significant unless the slope is zero.
		if b == 0 {
			reg.TStat = 0
			reg.PValue = 1
		} else {
			reg.TStat = math.Inf(sign(b))
			reg.PValue = 0
		}
		return reg, nil
	}
	reg.TStat = b / se
	reg.PValue = 2 * studentTSF(math.Abs(reg.TStat), df)
	return reg, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSF returns P(T > t) for T ~ Student-t with df degrees of freedom
// and t >= 0, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and 0 <= x <= 1, using the continued-fraction expansion from
// Numerical Recipes (Lentz's algorithm).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	bt := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
