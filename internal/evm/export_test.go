package evm

// SenderRecoveries returns the process-wide count of sender ecrecovers
// the per-transaction memo did not save.
func SenderRecoveries() uint64 { return senderRecoveries.Load() }
