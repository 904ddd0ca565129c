package core

import "fmt"

// Parameters of the paper's experiment, Tables 1 and 2.
const (
	// GammaLow, GammaMed, GammaHigh are the SM_CI scale parameters γ.
	GammaLow  = 1.0
	GammaMed  = 2.0
	GammaHigh = 3.31

	// PhiLow, PhiMed, PhiHigh are the SM_JAC scale parameters φ.
	PhiLow  = 1.0
	PhiMed  = 2.0
	PhiHigh = 4.0

	// JacobsonAlpha is the SM_JAC smoothing gain α = 1/4 (Jacobson 1988).
	JacobsonAlpha = 0.25

	// LPFBeta is the LPF smoothing constant β = 1/8.
	LPFBeta = 0.125

	// WinMeanN is the WINMEAN window size N = 10.
	WinMeanN = 10

	// ARIMAP, ARIMAD, ARIMAQ are the selected ARIMA orders (2, 1, 1).
	ARIMAP = 2
	ARIMAD = 1
	ARIMAQ = 1

	// ARIMARefit is N_arima, the refit period of the ARIMA predictor.
	ARIMARefit = 1000
)

// PredictorNames lists the paper's five predictors in its plotting order.
var PredictorNames = []string{"ARIMA", "LAST", "LPF", "MEAN", "WINMEAN"}

// MarginNames lists the paper's six safety margins in its x-axis order
// (SM_CI variants left, SM_JAC variants right).
var MarginNames = []string{"CI_low", "CI_med", "CI_high", "JAC_low", "JAC_med", "JAC_high"}

// ExtendedPredictorNames lists predictors beyond the paper's five (the
// paper's framework invites further timeout-calculation methods).
var ExtendedPredictorNames = []string{"MEDIAN"}

// MedianN is the window size of the MEDIAN extension predictor, chosen to
// match WINMEAN's for comparability.
const MedianN = 10

// predKind tags how a Detector keeps its predictor: one of the paper's
// fixed-size kinds in its own record (predState), or an object behind its
// ext pointer.
type predKind uint8

const (
	predExt     predKind = iota // any other predictor, ext.pred
	predAccrual                 // φ-accrual's window, ext.pred: arrival-anchored
	// predLast and the kinds after it are inline.
	predLast
	predMean
	predLPF // at the paper's β = LPFBeta
)

// predKindOf is the tag of a named predictor; predExt for those the
// detector keeps as objects.
func predKindOf(name string) predKind {
	switch name {
	case "LAST":
		return predLast
	case "MEAN":
		return predMean
	case "LPF":
		return predLPF
	}
	return predExt
}

// marginKind tags how a Detector keeps its margin: one of the paper's six
// or a constant in its own record (marginState), or an object behind its
// ext pointer.
type marginKind uint8

const (
	marginExt marginKind = iota // any other margin, ext.margin
	marginCILow
	marginCIMed
	marginCIHigh
	marginJACLow
	marginJACMed
	marginJACHigh
	marginConst // the constant is marginState.v
)

// marginScale is each of the paper's margins' Table 1 parameter: γ for
// SM_CI, φ for SM_JAC (whose gain is JacobsonAlpha).
var marginScale = [...]float64{
	marginCILow: GammaLow, marginCIMed: GammaMed, marginCIHigh: GammaHigh,
	marginJACLow: PhiLow, marginJACMed: PhiMed, marginJACHigh: PhiHigh,
}

// marginKindOf is the tag of one of MarginNames, marginExt for any other
// name.
func marginKindOf(name string) marginKind {
	switch name {
	case "CI_low":
		return marginCILow
	case "CI_med":
		return marginCIMed
	case "CI_high":
		return marginCIHigh
	case "JAC_low":
		return marginJACLow
	case "JAC_med":
		return marginJACMed
	case "JAC_high":
		return marginJACHigh
	}
	return marginExt
}

func (k marginKind) isCI() bool  { return k >= marginCILow && k <= marginCIHigh }
func (k marginKind) isJAC() bool { return k >= marginJACLow && k <= marginJACHigh }

// NewPredictorByName constructs a predictor with its Table 2 parameters.
// It accepts the paper's five (PredictorNames) and the extensions
// (ExtendedPredictorNames).
func NewPredictorByName(name string) (Predictor, error) {
	switch name {
	case "LAST":
		return NewLast(), nil
	case "MEAN":
		return NewMean(), nil
	case "WINMEAN":
		return NewWinMean(WinMeanN)
	case "LPF":
		return NewLPF(LPFBeta)
	case "ARIMA":
		return NewARIMA(ARIMAP, ARIMAD, ARIMAQ, ARIMARefit)
	case "MEDIAN":
		return NewMedian(MedianN)
	default:
		return nil, fmt.Errorf("core: unknown predictor %q", name)
	}
}

// NewMarginByName constructs one of the paper's safety margins with its
// Table 1 parameters.
func NewMarginByName(name string) (SafetyMargin, error) {
	switch k := marginKindOf(name); {
	case k.isCI():
		return NewSMCI(name, marginScale[k])
	case k.isJAC():
		return NewSMJAC(name, marginScale[k], JacobsonAlpha)
	}
	return nil, fmt.Errorf("core: unknown safety margin %q", name)
}

// Combo names one predictor×margin combination.
type Combo struct {
	// Predictor is one of PredictorNames.
	Predictor string
	// Margin is one of MarginNames.
	Margin string
}

// Name returns the combination's display name, e.g. "ARIMA+CI_low".
func (c Combo) Name() string { return c.Predictor + "+" + c.Margin }

// Build instantiates the combination's predictor and margin.
func (c Combo) Build() (Predictor, SafetyMargin, error) {
	p, err := NewPredictorByName(c.Predictor)
	if err != nil {
		return nil, nil, err
	}
	m, err := NewMarginByName(c.Margin)
	if err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// AllCombos returns the paper's 30 predictor×margin combinations, margin-
// major (all predictors for CI_low, then CI_med, ...), matching the x-axis
// grouping of Figures 4–8.
func AllCombos() []Combo {
	out := make([]Combo, 0, len(PredictorNames)*len(MarginNames))
	for _, m := range MarginNames {
		for _, p := range PredictorNames {
			out = append(out, Combo{Predictor: p, Margin: m})
		}
	}
	return out
}
