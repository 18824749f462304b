package sweep

import "repro/internal/ocl"

// devices is the process's device pool. It bounds no idle count: it keeps
// every device a Get has built, as many as the most Gets ever outstanding.
var devices = ocl.NewDevicePool(0)

// ProcessPool returns the device pool that Run and service.Work share
// across the process. A device is built on a Get that finds none idle and
// grows in place (Device.Reshape) when a later Get asks for a larger
// configuration; it stays resident until the process exits.
//
// Keeping the pool saves work only in a process that runs more than one
// campaign, such as the campaign benchmark's passes or a program calling
// Run in a loop. vortex sweep, vortex run and each -shard process make one
// Run and exit: they build as many devices as a pool of their own would,
// and hold them until exit.
func ProcessPool() *ocl.DevicePool { return devices }
