#include "serve/population.h"

namespace mecsched::serve {

Population::Population(const mec::Topology& universe)
    : universe_(&universe),
      up_(universe.num_devices(), 1),
      station_(universe.num_devices()),
      link_(universe.num_devices(), 1.0),
      station_up_(universe.num_base_stations(), 1) {
  for (std::size_t i = 0; i < universe.num_devices(); ++i) {
    station_[i] = universe.device(i).base_station;
  }
}

mec::Device Population::device(std::size_t device) const {
  mec::Device d = universe_->device(device);
  d.base_station = station_[device];
  const double factor = link_[device];
  d.radio.upload_bps *= factor;
  d.radio.download_bps *= factor;
  return d;
}

void Population::apply(const Event& e) {
  switch (e.kind) {
    case EventKind::kTaskArrival:
      break;
    case EventKind::kDeviceJoin:
      up_[e.device] = 1;
      station_[e.device] = e.station;
      break;
    case EventKind::kDeviceLeave:
      up_[e.device] = 0;
      break;
    case EventKind::kDeviceMigrate:
      if (up_[e.device]) station_[e.device] = e.station;
      break;
    case EventKind::kStationDown:
      station_up_[e.station] = 0;
      break;
    case EventKind::kStationUp:
      station_up_[e.station] = 1;
      break;
    case EventKind::kLinkFade:
      link_[e.device] = e.factor;
      break;
  }
}

}  // namespace mecsched::serve
