// Package transform implements the SMACS adoption tool of Fig. 4: it turns
// a legacy contract into an equivalent SMACS-enabled contract by inserting
// the token-verification preamble (Alg. 1) in front of every public and
// external method. Internal and private methods are copied unchanged, and
// the fallback — which cannot carry tokens — is left as-is, matching the
// paper's transformation where only externally callable methods gain the
// tokens argument.
package transform

import (
	"repro/internal/core"
	"repro/internal/evm"
)

// Options tweaks the transformation.
type Options struct {
	// Skip lists method names to leave unprotected (e.g. free view
	// methods the owner deliberately exposes).
	Skip []string
}

// Enable returns a SMACS-enabled version of the legacy contract, named
// with a " (SMACS)" suffix, whose dispatchable methods assert
// verifier.Verify before running the original body. The original
// contract is not modified. If the verifier carries a
// one-time-token bitmap, the new contract pre-allocates its storage words
// (charged at deployment — Tab. IV).
//
// Following Fig. 4's split (public h → public h(token) + private _h),
// only *external* dispatch runs the verification preamble; internal calls
// between the contract's own methods (evm.Call.Invoke) reach the original
// bodies directly, so a single token authorizes an entry point regardless
// of how many public methods it uses internally.
func Enable(legacy *evm.Contract, verifier *core.Verifier, opts ...Options) *evm.Contract {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	skip := make(map[string]bool, len(opt.Skip))
	for _, name := range opt.Skip {
		skip[name] = true
	}

	enabled := evm.NewContract(legacy.Name() + " (SMACS)")
	for _, m := range legacy.Methods() {
		copied := *m
		enabled.MustAddMethod(copied)
		if m.Visibility.Dispatchable() && !skip[m.Name] {
			body := m.Handler
			err := enabled.OverrideDispatch(m.Name, func(call *evm.Call) ([]any, error) {
				// assert(verify(token)) — Fig. 4.
				if err := verifier.Verify(call); err != nil {
					return nil, err
				}
				return body(call)
			})
			if err != nil {
				panic(err) // unreachable: the method was just added
			}
		}
	}
	if fb := legacy.Fallback(); fb != nil {
		enabled.SetFallback(fb)
	}
	words := legacy.InitialStorageWords()
	if bm := verifier.Bitmap(); bm != nil {
		words += bm.StorageWords()
	}
	enabled.SetInitialStorageWords(words)
	return enabled
}
