package service

import (
	"errors"
	"fmt"
)

// errDraining rejects campaign creation during shutdown.
var errDraining = errors.New("service: draining, not accepting campaigns")

// errUnknownCampaign is returned for lookups of nonexistent IDs.
var errUnknownCampaign = errors.New("service: unknown campaign")

// errCheckpoint fails a creation whose checkpoint file could not be
// written; the API layer maps it to 500.
var errCheckpoint = errors.New("service: writing checkpoint")

// quotaError rejects creation beyond a tenant's campaign quota; the API
// layer maps it to 429.
type quotaError struct {
	tenant string
	limit  int
}

func (e quotaError) Error() string {
	return fmt.Sprintf("service: tenant %q at campaign quota (%d queued+running)", e.tenant, e.limit)
}
