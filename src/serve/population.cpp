#include "serve/population.h"

namespace mecsched::serve {

Population::Population(const mec::Topology& universe)
    : universe_(&universe),
      up_(universe.num_devices(), 1),
      station_up_(universe.num_base_stations(), 1) {
  devices_.reserve(universe.num_devices());
  for (std::size_t i = 0; i < universe.num_devices(); ++i) {
    devices_.push_back(universe.device(i));
  }
}

void Population::apply(const Event& e) {
  switch (e.kind) {
    case EventKind::kTaskArrival:
      break;
    case EventKind::kDeviceJoin:
      up_[e.device] = 1;
      devices_[e.device].base_station = e.station;
      break;
    case EventKind::kDeviceLeave:
      up_[e.device] = 0;
      break;
    case EventKind::kDeviceMigrate:
      if (up_[e.device]) devices_[e.device].base_station = e.station;
      break;
    case EventKind::kStationDown:
      station_up_[e.station] = 0;
      break;
    case EventKind::kStationUp:
      station_up_[e.station] = 1;
      break;
    case EventKind::kLinkFade: {
      // Scaled from the nominal rates, so a factor of 1 restores them bit
      // for bit.
      const mec::RadioProfile& nominal = universe_->device(e.device).radio;
      mec::RadioProfile& radio = devices_[e.device].radio;
      radio.upload_bps = nominal.upload_bps * e.factor;
      radio.download_bps = nominal.download_bps * e.factor;
      break;
    }
  }
}

}  // namespace mecsched::serve
