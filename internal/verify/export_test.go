package verify

import "time"

// SetAuditTicks replaces the standalone audit loop's ticker with a channel
// the test drives; call it before Start.
func SetAuditTicks(a *Auditor, ticks <-chan time.Time) { a.tickSrc = ticks }
