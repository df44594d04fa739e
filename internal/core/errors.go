package core

import "errors"

// Sentinel errors for API misuse of the multicast extension. Misuse is
// fatal in the firmware model, so these surface as panics carrying error
// values: recover the value and test it with errors.Is.
var (
	// ErrNoExtension reports FromNIC on a NIC without the extension.
	ErrNoExtension = errors.New("core: NIC has no multicast extension")
	// ErrInvalidTree reports installing a group whose tree violates the
	// ID-sorted deadlock invariant.
	ErrInvalidTree = errors.New("core: invalid multicast tree")
	// ErrGroupInstalled reports installing a group (or barrier group)
	// that already has a table entry.
	ErrGroupInstalled = errors.New("core: group already installed")
	// ErrNoSuchGroup reports operating on a group this NIC has no table
	// entry for.
	ErrNoSuchGroup = errors.New("core: no such group")
	// ErrGroupBusy reports tearing down (or re-entering) a group with
	// outstanding work.
	ErrGroupBusy = errors.New("core: group has outstanding work")
	// ErrNotMember reports installing a barrier on a node outside the
	// group's membership.
	ErrNotMember = errors.New("core: node is not a group member")
	// ErrWrongNIC reports a collective call through a port that lives on
	// a different NIC than the extension.
	ErrWrongNIC = errors.New("core: port belongs to a different NIC")
	// ErrNotRoot reports a multicast send from a non-root member.
	ErrNotRoot = errors.New("core: multicast send from non-root")
	// ErrEpochRegressed reports preparing a group epoch that does not
	// advance the entry's live epoch.
	ErrEpochRegressed = errors.New("core: group epoch did not advance")
	// ErrNotPrepared reports committing an epoch no prepare staged.
	ErrNotPrepared = errors.New("core: no prepared view for epoch")
)
